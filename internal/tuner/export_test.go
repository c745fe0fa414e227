package tuner

// MustNew is New for callers that already validated the name.
func MustNew(name string, o Options) Optimizer {
	opt, err := New(name, o)
	if err != nil {
		panic(err)
	}
	return opt
}
