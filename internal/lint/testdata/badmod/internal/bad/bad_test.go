package bad

import "testing"

func TestHelper(t *testing.T) {
	if TestOnlyHelper() != 7 {
		t.Fatal("helper changed")
	}
}
