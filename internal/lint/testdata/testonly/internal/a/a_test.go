package a

import "testing"

func TestCases(t *testing.T) {
	th := New(2)
	th.Grow()
	Orphan{}.Poke()
	if OnlyTests()+Recurse(2)+Limit+Global+helper() == 0 || th.Area() == 0 {
		t.Fatal("unreachable")
	}
}
