// Command tool is the fixture's command: uses from cmd/ count.
package main

import (
	"fmt"

	"testonly/internal/a"
	"testonly/internal/b"
)

func main() {
	fmt.Println(a.UsedByCmd(), b.Describe())
}
