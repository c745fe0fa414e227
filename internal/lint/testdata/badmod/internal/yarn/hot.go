// Package yarn is a miniature hot-package stand-in: its import-path
// suffix matches internal/yarn, so the config-get-in-loop analyzer
// treats it as a scheduling hot path.
package yarn

import "badmod/internal/mrconf"

// SumInLoop violates config-get-in-loop: the string-keyed lookup hashes
// the parameter name once per iteration instead of using a typed
// accessor.
func SumInLoop(c mrconf.Config, n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total += c.Get(mrconf.IOSortMB) // want config-get-in-loop
	}
	return total
}
