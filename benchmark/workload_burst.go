package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// burstSeeds is the universe of simulation seeds a burst op draws from; the
// benchmark seed only picks where the rotation starts.
const burstSeeds = 8

// burst1M is the million-instance headline: one op simulates one unpacked
// burst and extracts its metrics. sim and platform do all the work.
type burst1M struct {
	sz     sizing
	cfg    platform.Config
	demand interfere.Demand
	golden map[string]string
	seed   int64
	last   trace.Metrics

	warmupSec float64
}

func newBurst1M(sz sizing) *burst1M {
	return &burst1M{sz: sz, cfg: platform.AWSLambda(), demand: workload.Video{}.Demand()}
}

func (w *burst1M) name() string          { return "burst-1m" }
func (w *burst1M) drivers() int          { return 1 }
func (w *burst1M) unitsPerOp() float64   { return float64(w.sz.burstFunctions) }
func (w *burst1M) tailQuantile() float64 { return 0.9 }
func (w *burst1M) sliceOps() int         { return 1 }

func (w *burst1M) burst(i int) platform.Burst {
	return platform.Burst{
		Demand: w.demand, Functions: w.sz.burstFunctions, Degree: 1,
		Seed: 1 + (w.seed+int64(i))%burstSeeds,
	}
}

func (w *burst1M) setup(seed int64, _ bool) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	w.golden = g.Burst
	w.seed = ((seed % burstSeeds) + burstSeeds) % burstSeeds
	// The first op builds the pooled engine, wheel and instance batch: it is
	// both the warm-up and the cold-pool cost.
	t0 := time.Now()
	if err := w.run(0, 0, nil, 0); err != nil {
		return err
	}
	w.warmupSec = time.Since(t0).Seconds()
	if !w.check(0, 0) {
		return fmt.Errorf("burst of %d differs from golden (regenerate with -update if intended)", w.sz.burstFunctions)
	}
	return nil
}

func (w *burst1M) run(_, i int, tr *tracer, parent int) error {
	id := tr.begin(i+1, parent, "platform.run")
	res, err := platform.Run(w.cfg, w.burst(i))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(i+1, parent, "trace.from_result")
	w.last = trace.FromResult(res)
	tr.end(id)
	return nil
}

// burstDigest pins every simulated statistic a simulator speed-up must leave
// identical.
func burstDigest(m trace.Metrics) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range []float64{m.ScalingTime, m.TotalService, m.ExpenseUSD, m.MedianService, m.TailService, float64(m.Instances)} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func burstKey(functions int, seed int64) string { return fmt.Sprintf("%d|%d", functions, seed) }

func (w *burst1M) check(_, i int) bool {
	want, ok := w.golden[burstKey(w.sz.burstFunctions, w.burst(i).Seed)]
	return ok && burstDigest(w.last) == want
}

func (w *burst1M) regold(g *goldens) error {
	g.Burst = map[string]string{}
	for _, functions := range []int{fullSizing().burstFunctions, smokeSizing().burstFunctions} {
		for seed := int64(1); seed <= burstSeeds; seed++ {
			res, err := platform.Run(w.cfg, platform.Burst{Demand: w.demand, Functions: functions, Degree: 1, Seed: seed})
			if err != nil {
				return err
			}
			g.Burst[burstKey(functions, seed)] = burstDigest(trace.FromResult(res))
		}
	}
	return nil
}

func (w *burst1M) layers(agg perOp, out values) {
	run := agg.durNS["platform.run"]
	out["platform.run_ms"] = run / 1e6
	out["platform.ns_per_instance"] = run / float64(w.sz.burstFunctions)
	out["trace.from_result_ms"] = agg.durNS["trace.from_result"] / 1e6
	out["platform.pool_warmup_ms"] = w.warmupSec * 1e3
}

// countingRecorder counts lifecycle spans without keeping them.
type countingRecorder struct{ spans int }

func (*countingRecorder) BeginBurst(obs.BurstInfo) {}
func (r *countingRecorder) Span(obs.Span)          { r.spans++ }
func (*countingRecorder) Event(obs.Event)          {}

// nopSink discards typed events.
type nopSink struct{}

func (nopSink) Dispatch(uint8, int32) {}

// stationSink runs the TypedStation completion protocol and nothing else.
type stationSink struct{ st *sim.TypedStation }

func (s stationSink) Dispatch(_ uint8, subject int32) {
	s.st.Complete(subject)
	s.st.Next()
}

// burstProbes measures the layers under burst-1m one at a time. It expects a
// warm pool (a burst op has run) and leaves runMS, the plain Run time it
// compares the sharded run against, to the caller.
func burstProbes(sz sizing, runMS float64, out values) error {
	w := newBurst1M(sz)
	b := w.burst(0)

	// Exact allocation counts of one steady-state Run: the minimum over a few
	// ops, since a collection may empty the scratch pool in between.
	objects, bytes := math.Inf(1), math.Inf(1)
	for r := 0; r < 3; r++ {
		o, by, err := allocsOf(func() error { _, err := platform.Run(w.cfg, b); return err })
		if err != nil {
			return err
		}
		objects, bytes = math.Min(objects, o), math.Min(bytes, by)
	}
	out["platform.allocs_per_op"] = objects
	out["platform.alloc_bytes_per_instance"] = bytes / float64(b.Functions)

	// Lifecycle spans per instance, and what attaching a recorder costs.
	rb := b
	rb.Functions = sz.recorderBurst
	counter := &countingRecorder{}
	rb.Recorder = counter
	if _, err := platform.Run(w.cfg, rb); err != nil {
		return err
	}
	out["platform.spans_per_instance"] = float64(counter.spans) / float64(rb.Instances())
	var bare, recorded []float64
	for r := 0; r < 5; r++ {
		for _, rec := range []obs.Recorder{nil, &obs.Memory{}} {
			rb.Recorder = rec
			t0 := time.Now()
			if _, err := platform.Run(w.cfg, rb); err != nil {
				return err
			}
			if rec == nil {
				bare = append(bare, float64(time.Since(t0)))
			} else {
				recorded = append(recorded, float64(time.Since(t0)))
			}
		}
	}
	out["obs.recorder_overhead_pct"] = (median(recorded)/median(bare) - 1) * 100

	// Eight control-plane cells on the default worker count: the multicore row.
	ns, err := medianNS(3, func() error {
		_, err := platform.RunSharded(w.cfg, b, platform.Sharding{Shards: 8})
		return err
	})
	if err != nil {
		return err
	}
	out["platform.sharded8_ms"] = ns / 1e6
	out["platform.sharded8_speedup"] = runMS / (ns / 1e6)

	// The bare event engine and station, without the control plane on top.
	events := 1_000_000 / sz.probeScale
	ns, err = medianNS(3, func() error {
		eng := sim.NewEngine()
		eng.SetSink(nopSink{})
		rng := sim.NewRNG(1)
		for i := 0; i < events; i++ {
			eng.Emit(rng.Float64()*1000, 0, int32(i))
		}
		eng.Run()
		return nil
	})
	if err != nil {
		return err
	}
	out["sim.engine_ns_per_event"] = ns / float64(events)
	ns, err = medianNS(3, func() error {
		eng := sim.NewEngine()
		var st sim.TypedStation
		eng.SetSink(stationSink{&st})
		st.Init(eng, 4, 0, events, func(int32) float64 { return 0.001 })
		for i := 0; i < events; i++ {
			st.Submit(int32(i))
		}
		eng.Run()
		if st.Served != events {
			return fmt.Errorf("station served %d of %d jobs", st.Served, events)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["sim.station_ns_per_job"] = ns / float64(events)
	return nil
}
