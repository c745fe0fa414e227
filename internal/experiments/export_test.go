package experiments

// DefaultEnv matches the committed EXPERIMENTS.md numbers and the
// goldens under testdata.
func DefaultEnv() Env { return Env{Seed: 42} }

// resetDefaultLegs empties the process-wide default-leg memo, so a test
// can start from the state of a fresh process.
func resetDefaultLegs() {
	defaultLegs.mu.Lock()
	defaultLegs.cells = nil
	defaultLegs.mu.Unlock()
}
