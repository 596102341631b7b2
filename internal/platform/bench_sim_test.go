package platform

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// BenchmarkSim is the burst scaling curve recorded in BENCH_SIM.json: one
// unpacked burst of C functions (C instances, the event-heaviest shape per
// function) at C = 10³ … 10⁶, on the production path ("wheel", the row's
// historical name: for this dice-free burst the tandem solver, no engine at
// all), forced through the typed dispatcher on the event engine ("evented"),
// and through the retained closure control plane. Besides ns/op and the
// standard alloc columns, each sub-benchmark reports allocs/instance and
// bytes/instance — the steady-state per-instance footprint — and
// events/instance, the run's event budget (0 solved, 5 on
// the evented and closure rows, which schedule every timer). CI runs it at
// -benchtime=1x as a smoke so the million-instance point cannot rot; the
// recorded curve comes from dedicated -count runs.
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

	for _, c := range cs {
		b.Run(fmt.Sprintf("wheel/C=%d", c), func(b *testing.B) {
			bb := burstAt(c)
			loop(b, c, runControlPlane, func() error { _, err := Run(cfg, bb); return err })
		})
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
