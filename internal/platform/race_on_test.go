//go:build race

package platform

// raceEnabled reports that the race detector is on: sync.Pool drops items at
// random and every memory access is instrumented, so assertions on
// allocation counts and wall-clock budgets measure the detector, not the
// code, and are skipped.
const raceEnabled = true
