package platform

import (
	"math/rand"
	"testing"
)

// Test-only windows for the external test package (platform_test), which
// exists because internal/funcx imports this one.

// TandemFallbacks reports how many gated bursts the tandem solver has handed
// back to the evented path since the process started.
func TandemFallbacks() int64 { return tandemFallbacks.Load() }

// RaceEnabled reports that the race detector is on.
const RaceEnabled = raceEnabled

// CheckStoreStates runs a Run, a RunMixed and a RunSharded burst on cfg from
// every state the schedule and bill stores can be in, requires each to be the
// burst forced through the event engine, and reports whether they stored
// anything (store_test.go).
func CheckStoreStates(t *testing.T, cfg Config, seed int64) (stored bool) {
	defer resetStores()
	return checkStoreStates(t, cfg, rand.New(rand.NewSource(seed)))
}
