package a_test

import (
	"testing"

	"testonly/internal/a"
)

func TestExt(t *testing.T) {
	if a.ExtOnly() != 2 {
		t.Fatal("ExtOnly changed")
	}
}
