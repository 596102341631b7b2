//go:build race

package core

// raceEnabled reports that the race detector is on: every memory access is
// instrumented and sync.Pool drops items at random, so assertions on
// allocation counts measure the detector, not the code, and are skipped.
const raceEnabled = true
