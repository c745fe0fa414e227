package mrconf

import "fmt"

// Config builders that only tests use.

// FromMap builds a Config from explicit overrides. Unknown names panic.
func FromMap(values map[string]float64) Config {
	for name := range values {
		if !isParamName(name) {
			panic(fmt.Sprintf("mrconf: unknown parameter %q", name))
		}
	}
	c := Config{}
	for _, p := range registry {
		if v, ok := values[p.Name]; ok {
			c = c.With(p.ID, v)
		}
	}
	return c
}

// Merge returns c with all of other's overrides applied on top.
func (c Config) Merge(other Config) Config {
	out := c
	other.EachOverride(func(p Param, v float64) { out = out.With(p.ID, v) })
	return out
}
