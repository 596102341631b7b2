package main

import (
	"fmt"
	"math"
	"math/rand"

	propack "repro"
	"repro/internal/core"
	"repro/internal/funcx"
	"repro/internal/interfere"
	"repro/internal/platform"
	"repro/internal/workload"
)

// pair is one (platform, application) cell of the evaluation panel.
type pair struct {
	platform string // the daemon's platform parameter
	cfg      platform.Config
	app      string
	demand   interfere.Demand
}

func (p pair) key() string { return p.platform + "|" + p.app }

// allPairs is the 4 platforms × 5 paper applications panel, in fixed order.
func allPairs() []pair {
	platforms := []struct {
		name string
		cfg  platform.Config
	}{
		{"aws", platform.AWSLambda()},
		{"google", platform.GoogleCloudFunctions()},
		{"azure", platform.AzureFunctions()},
		{"funcx", funcx.Config()},
	}
	var out []pair
	for _, p := range platforms {
		for _, w := range workload.All() {
			out = append(out, pair{platform: p.name, cfg: p.cfg, app: w.Name(), demand: w.Demand()})
		}
	}
	return out
}

// panel is the first n pairs of a stride through allPairs that touches every
// platform and application early, so the smoke sizing's two pairs differ in
// both.
func panel(n int) []pair {
	all := allPairs()
	out := make([]pair, 0, n)
	for i := 0; len(out) < n; i++ {
		out = append(out, all[(i*7)%len(all)])
	}
	return out
}

// adviseConcurrencies are the concurrency levels an advise op draws from.
var adviseConcurrencies = []int{500, 1000, 2000, 5000}

// adviseSeqLen is the length of the pre-generated op sequence; the loop wraps
// around it.
const adviseSeqLen = 4096

type adviseOp struct {
	pair int
	c    int
}

// adviseCold is the CLI/library user's cold path: every op runs the whole
// modeling pipeline (probe, fit, plan) for one (platform, app, c).
type adviseCold struct {
	sz     sizing
	pairs  []pair
	golden map[string]adviseGolden
	seq    []adviseOp
	last   propack.Recommendation

	// Kept by a traced op for rerun.
	opts      core.ProfileOptions
	etSamples []core.ETSample
	scSamples []core.ScalingSample
}

func newAdviseCold(sz sizing) *adviseCold { return &adviseCold{sz: sz} }

func (w *adviseCold) name() string          { return "advise-cold" }
func (w *adviseCold) drivers() int          { return 1 }
func (w *adviseCold) unitsPerOp() float64   { return 1 }
func (w *adviseCold) tailQuantile() float64 { return 0.9 }
func (w *adviseCold) sliceOps() int         { return len(w.pairs) }

func (w *adviseCold) setup(seed int64, _ bool) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	w.golden = g.Advise
	w.pairs = panel(w.sz.pairs)
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(w.pairs))
	w.seq = make([]adviseOp, adviseSeqLen)
	for i := range w.seq {
		w.seq[i] = adviseOp{pair: order[i%len(order)], c: adviseConcurrencies[rng.Intn(len(adviseConcurrencies))]}
	}
	// Warm-up: one op per pair, checked like any other.
	for i := range w.pairs {
		if err := w.run(0, i, nil, 0); err != nil {
			return err
		}
		if !w.check(0, i) {
			op := w.seq[i]
			return fmt.Errorf("advise %s c=%d differs from golden (regenerate with -update if intended)", w.pairs[op.pair].key(), op.c)
		}
	}
	return nil
}

func (w *adviseCold) run(_, i int, tr *tracer, parent int) error {
	op := w.seq[i%len(w.seq)]
	p := w.pairs[op.pair]
	var err error
	if tr == nil {
		w.last, err = propack.Advise(p.cfg, p.demand, op.c, propack.Balanced())
		return err
	}
	w.last, err = w.tracedAdvise(tr, i+1, parent, p, op.c)
	return err
}

func adviseKey(p pair, c int) string { return fmt.Sprintf("%s|%d", p.key(), c) }

func toAdviseGolden(pl core.Plan) adviseGolden {
	return adviseGolden{
		Degree:      pl.Degree,
		ServiceBits: math.Float64bits(pl.PredictedServiceSec),
		ExpenseBits: math.Float64bits(pl.PredictedExpenseUSD),
	}
}

func (w *adviseCold) check(_, i int) bool {
	op := w.seq[i%len(w.seq)]
	want, ok := w.golden[adviseKey(w.pairs[op.pair], op.c)]
	return ok && toAdviseGolden(w.last.Plan) == want
}

func (w *adviseCold) regold(g *goldens) error {
	g.Advise = map[string]adviseGolden{}
	for _, p := range allPairs() {
		for _, c := range adviseConcurrencies {
			rec, err := propack.Advise(p.cfg, p.demand, c, propack.Balanced())
			if err != nil {
				return fmt.Errorf("advise %s c=%d: %w", p.key(), c, err)
			}
			g.Advise[adviseKey(p, c)] = toAdviseGolden(rec.Plan)
		}
	}
	return nil
}

// timingMeasurer wraps core.SimMeasurer with the three measurer interfaces
// BuildModels looks for and records one span per probe. It is the only way
// to see inside Advise from this side of the boundary: the probes are the
// calls Advise makes back out.
type timingMeasurer struct {
	inner  *core.SimMeasurer
	tr     *tracer
	op     int
	parent int
}

var (
	_ core.ConcurrentMeasurer = (*timingMeasurer)(nil)
	_ core.CostMeasurer       = (*timingMeasurer)(nil)
)

func (m *timingMeasurer) MeasureExec(degree int) (float64, error) {
	id := m.tr.begin(m.op, m.parent, "core.probe_exec")
	defer m.tr.end(id)
	return m.inner.MeasureExec(degree)
}

func (m *timingMeasurer) MeasureExecCall(degree, call int) (float64, float64, error) {
	id := m.tr.begin(m.op, m.parent, "core.probe_exec")
	defer m.tr.end(id)
	return m.inner.MeasureExecCall(degree, call)
}

func (m *timingMeasurer) MeasureScaling(instances int) (float64, error) {
	id := m.tr.begin(m.op, m.parent, "core.probe_scaling")
	defer m.tr.end(id)
	return m.inner.MeasureScaling(instances)
}

func (m *timingMeasurer) AdvanceCalls(n int)           { m.inner.AdvanceCalls(n) }
func (m *timingMeasurer) LastProbeStorageUSD() float64 { return m.inner.LastProbeStorageUSD() }

// tracedAdvise is propack.Advise spelled out with a span at each call into
// core; it must stay the same steps as the function it mirrors. It keeps the
// probe samples so rerun can time the fits alone afterwards.
func (w *adviseCold) tracedAdvise(tr *tracer, op, parent int, p pair, c int) (propack.Recommendation, error) {
	build := tr.begin(op, parent, "core.build_models")
	meas := &timingMeasurer{
		inner: &core.SimMeasurer{Config: p.cfg, Demand: p.demand, Seed: 1},
		tr:    tr, op: op, parent: build,
	}
	w.opts = core.ProfileOptionsFor(p.cfg, p.demand)
	models, etSamples, scSamples, overhead, err := core.BuildModels(meas, w.opts)
	tr.end(build)
	if err != nil {
		return propack.Recommendation{}, err
	}
	w.etSamples, w.scSamples = etSamples, scSamples
	plan := tr.begin(op, parent, "core.plan")
	pl, err := models.PlanFor(c, propack.Balanced())
	tr.end(plan)
	if err != nil {
		return propack.Recommendation{}, err
	}
	return propack.Recommendation{Plan: pl, Models: models, Overhead: overhead}, nil
}

// rerun repeats, after the op's root span has closed, the fits and the table
// build on the samples the op returned, to time each alone. The spans are
// roots of their own, so they are no part of the op.
func (w *adviseCold) rerun(op int, tr *tracer) error {
	id := tr.begin(op, 0, "rerun.core.fit_et")
	_, err := core.FitET(w.etSamples, w.opts.MfuncGB, w.opts.FitET)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(op, 0, "rerun.core.fit_scaling")
	_, err = core.FitScaling(w.scSamples)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin(op, 0, "rerun.core.table_build")
	_, err = core.NewDegreeTable(w.last.Models, w.last.Plan.Concurrency)
	tr.end(id)
	return err
}

func (w *adviseCold) layers(agg perOp, out values) {
	const ms, us = 1e6, 1e3
	build := agg.durNS["core.build_models"]
	busyExec, busyScaling := agg.durNS["core.probe_exec"], agg.durNS["core.probe_scaling"]
	out["core.build_models_ms"] = build / ms
	out["core.probe_exec_busy_ms"] = busyExec / ms
	out["core.probe_exec_calls"] = agg.calls["core.probe_exec"]
	out["core.probe_scaling_busy_ms"] = busyScaling / ms
	out["core.probe_scaling_calls"] = agg.calls["core.probe_scaling"]
	// Busy time over the wall time the probes cover: 1 means sequential.
	if wall := build - agg.self["core.build_models"]; wall > 0 {
		out["core.probe_parallelism"] = (busyExec + busyScaling) / wall
	}
	out["core.plan_us"] = agg.durNS["core.plan"] / us
	// The residue: everything an op spends outside a probe and outside the
	// plan call — fits, fan-out scheduling, allocation.
	out["core.advise_self_ms"] = (agg.self[w.name()] + agg.self["core.build_models"]) / ms
	out["core.fit_et_us"] = agg.durNS["rerun.core.fit_et"] / us
	out["core.fit_scaling_us"] = agg.durNS["rerun.core.fit_scaling"] / us
	out["core.table_build_us"] = agg.durNS["rerun.core.table_build"] / us
}

// gridSizes is the daemon's default memory grid: quarter steps up to the
// platform's instance memory.
func gridSizes(cfg platform.Config) []float64 {
	m := cfg.Shape.MemoryMB
	return []float64{m / 4, m / 2, 3 * m / 4, m}
}

// adviseProbes measures the layer calls under advise-cold one at a time.
func adviseProbes(sz sizing, out values) error {
	pairs := panel(sz.pairs)
	// Allocation per cold Advise, one op per pair.
	objects, bytes, err := allocsOf(func() error {
		for _, p := range pairs {
			if _, err := propack.Advise(p.cfg, p.demand, 2000, propack.Balanced()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["core.advise_allocs_per_op"] = objects / float64(len(pairs))
	out["core.advise_alloc_kb_per_op"] = bytes / 1024 / float64(len(pairs))

	aws, video := platform.AWSLambda(), workload.Video{}.Demand()
	ns, err := medianNS(max(3/sz.probeScale, 1), func() error {
		probes, err := core.GridProbesFor(aws, video, gridSizes(aws), 1)
		if err != nil {
			return err
		}
		_, _, err = core.BuildGridModels(probes)
		return err
	})
	if err != nil {
		return err
	}
	out["core.build_grid_models_ms"] = ns / 1e6

	// One packed instance: the per-burst fixed cost every probe pays.
	ns, err = medianNS(max(400/sz.probeScale, 5), func() error {
		_, err := platform.Run(aws, platform.Burst{Demand: video, Functions: 8, Degree: 8, Seed: 1})
		return err
	})
	if err != nil {
		return err
	}
	out["platform.run_1inst_us"] = ns / 1e3
	// The largest scaling probe: 5000 no-op instances.
	nop := interfere.Demand{CPUSeconds: 0.1, MemoryMB: 128}
	ns, err = medianNS(max(10/sz.probeScale, 2), func() error {
		_, err := platform.Run(aws, platform.Burst{Demand: nop, Functions: 5000, Degree: 1, Seed: 1})
		return err
	})
	if err != nil {
		return err
	}
	out["platform.run_5000_ms"] = ns / 1e6
	return statsFitProbes(sz, out)
}
