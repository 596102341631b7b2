package platform

// Test-only windows for the external test package (platform_test), which
// exists because internal/funcx imports this one.

// TandemFallbacks reports how many gated bursts the tandem solver has handed
// back to the evented path since the process started.
func TandemFallbacks() int64 { return tandemFallbacks.Load() }

// RaceEnabled reports that the race detector is on.
const RaceEnabled = raceEnabled
