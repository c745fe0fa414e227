package experiments

// DefaultEnv matches the committed EXPERIMENTS.md numbers and the
// goldens under testdata.
func DefaultEnv() Env { return Env{Seed: 42} }
