package mrconf

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestRegistryRoundTrip pushes every registered parameter through
// FromMap -> Overrides -> FromMap and asserts the assignment survives
// unchanged: every Hadoop key in the registry names a real, fully
// round-trippable parameter.
func TestRegistryRoundTrip(t *testing.T) {
	for _, p := range Params() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			// A non-default value inside the range, snapped to the
			// parameter's own grid so quantization is lossless.
			v := p.Quantize(p.Min + (p.Max-p.Min)/2)
			if v == p.Default {
				v = p.Quantize(p.Min)
				if v == p.Default {
					v = p.Quantize(p.Max)
				}
			}
			if v == p.Default {
				t.Fatalf("%s: cannot pick a non-default value in [%g,%g]", p.Name, p.Min, p.Max)
			}

			c1 := FromMap(map[string]float64{p.Name: v})
			if got := c1.Get(p.ID); got != v {
				t.Fatalf("FromMap lost value: got %g, want %g", got, v)
			}
			over := c1.Overrides()
			if len(over) != 1 || over[p.Name] != v {
				t.Fatalf("Overrides = %v, want {%s: %g}", over, p.Name, v)
			}
			c2 := FromMap(over)
			if !c1.Equal(c2) {
				t.Fatalf("round-trip changed config: %s vs %s", c1, c2)
			}
		})
	}
}

// TestValidateAcceptsAllDefaults asserts the registry's own defaults
// form a valid configuration — individually and all together.
func TestValidateAcceptsAllDefaults(t *testing.T) {
	if err := Validate(Default()); err != nil {
		t.Fatalf("Validate(Default()) = %v", err)
	}
	// Explicitly materialize every default through FromMap, too: the
	// identity that "defaults written out" == "defaults implied".
	m := make(map[string]float64, len(Params()))
	for _, p := range Params() {
		m[p.Name] = p.Default
	}
	c := FromMap(m)
	if err := Validate(c); err != nil {
		t.Fatalf("Validate(explicit defaults) = %v", err)
	}
	if !c.Equal(Default()) {
		t.Fatal("explicit defaults differ from Default()")
	}
	if n := len(c.Overrides()); n != 0 {
		t.Fatalf("explicit defaults produced %d overrides, want 0", n)
	}
}

// TestRoundTripAllAtOnce round-trips a config overriding every
// parameter simultaneously, under Validate+Repair so cross-parameter
// rules hold.
func TestRoundTripAllAtOnce(t *testing.T) {
	c := Default()
	for _, p := range Params() {
		v := p.Quantize(p.Min + (p.Max-p.Min)/3)
		c = c.With(p.ID, v)
	}
	c = Repair(c)
	if err := Validate(c); err != nil {
		t.Fatalf("repaired config still invalid: %v", err)
	}
	back := FromMap(c.Overrides())
	if !c.Equal(back) {
		t.Fatalf("bulk round-trip changed config:\n  %s\nvs\n  %s", c, back)
	}
}

// registryErr reports the first ParamID whose entry in reg is not its
// own: an entry filed under another ID, an empty Hadoop key (the zero
// entry a key missing from the keyed literal leaves), or a key that an
// earlier entry already uses.
func registryErr(reg *[NumParams]Param) error {
	seen := make(map[string]ParamID, NumParams)
	for i, p := range reg {
		id := ParamID(i)
		switch prev, dup := seen[p.Name]; {
		case p.Name == "":
			return fmt.Errorf("ParamID %d has no entry", id)
		case p.ID != id:
			return fmt.Errorf("ParamID %d holds the entry of ParamID %d (%s)", id, p.ID, p.Name)
		case dup:
			return fmt.Errorf("ParamIDs %d and %d share the key %s", prev, id, p.Name)
		}
		seen[p.Name] = id
	}
	return nil
}

// TestRegistryKeyedByID: every ParamID in [0, NumParams) has an entry
// with a unique, non-empty Hadoop key, and the JSON decoder maps that
// key back to the same ID. A registry with a hole fails the check.
func TestRegistryKeyedByID(t *testing.T) {
	if err := registryErr(&registry); err != nil {
		t.Fatal(err)
	}
	for i, p := range registry {
		id := ParamID(i)
		v := p.Quantize(p.Max)
		if v == p.Default {
			v = p.Quantize(p.Min)
		}
		var c Config
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{%q: %v}`, p.Name, v)), &c); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !c.Equal(Default().With(id, v)) {
			t.Errorf("JSON key %s decodes to %s, want ParamID %d set to %g", p.Name, c, id, v)
		}
	}

	holed := registry
	holed[ShuffleMergePct] = Param{}
	if registryErr(&holed) == nil {
		t.Error("a registry missing an entry passed the check")
	}
	swapped := registry
	swapped[IOSortMB], swapped[SortSpillPercent] = swapped[SortSpillPercent], swapped[IOSortMB]
	if registryErr(&swapped) == nil {
		t.Error("a registry with two entries filed under each other's IDs passed the check")
	}
}
