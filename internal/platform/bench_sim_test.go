package platform

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// BenchmarkSim times one unpacked burst of C functions (C instances, the
// event-heaviest shape per function) at C = 10³ … 10⁶ on the two oracle
// control planes the production path is checked against: forced through the
// typed dispatcher on the event engine ("evented"), and through the retained
// closure control plane. Besides ns/op and the standard alloc columns, each
// sub-benchmark reports allocs/instance, bytes/instance and events/instance
// (5: both schedule every timer). The production path's numbers are
// burst-1m's and the platform.* metrics of `go run ./benchmark`.
func BenchmarkSim(b *testing.B) {
	cs := []int{1_000, 10_000, 100_000, 1_000_000}
	burstAt := func(c int) Burst {
		return Burst{Demand: workload.Video{}.Demand(), Functions: c, Degree: 1, Seed: 42}
	}
	cfg := AWSLambda()

	// loop runs the burst b.N times on control plane cp and reports
	// per-instance allocation metrics from the runtime's malloc counters (the
	// testing package only exposes per-op figures) and the events the engine
	// scheduled per instance.
	loop := func(b *testing.B, instances int, cp controlPlaneFunc, run func() error) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		events, _ := withEventCounts(cp, func() {
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
		})
		den := float64(b.N) * float64(instances)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/den, "allocs/instance")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/den, "bytes/instance")
		b.ReportMetric(float64(events)/den, "events/instance")
	}

	// A limit that never throttles keeps the burst out of the solver's gate.
	for _, c := range cs {
		b.Run(fmt.Sprintf("evented/C=%d", c), func(b *testing.B) {
			bb, forced := burstAt(c), forcedEvented(cfg, c)
			loop(b, c, runControlPlane, func() error { _, err := Run(forced, bb); return err })
		})
	}
	for _, c := range cs {
		b.Run(fmt.Sprintf("closure/C=%d", c), func(b *testing.B) {
			bb := burstAt(c)
			loop(b, c, runControlPlaneClosureJoined, func() error { _, err := Run(cfg, bb); return err })
		})
	}
}
