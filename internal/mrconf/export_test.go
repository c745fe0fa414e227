package mrconf

// Config builders that only tests use.

// FromMap builds a Config from explicit overrides. Unknown names panic.
func FromMap(values map[string]float64) Config {
	for name := range values {
		mustID(name)
	}
	c := Config{}
	for _, p := range registry {
		if v, ok := values[p.Name]; ok {
			c = c.With(p.Name, v)
		}
	}
	return c
}

// Merge returns c with all of other's overrides applied on top.
func (c Config) Merge(other Config) Config {
	out := c
	other.EachOverride(func(p Param, v float64) { out = out.With(p.Name, v) })
	return out
}
