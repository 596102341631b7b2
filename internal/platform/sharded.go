package platform

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Sharded simulation: a burst partitioned across independent control planes.
//
// A single control plane is globally coupled — every instance contends for
// the same scheduler, builder, and shipper — so its discrete-event
// simulation is inherently sequential. Sharding models the partitioned
// (cellular) control plane real providers run at scale: shard s owns a
// contiguous range of instances and its own station set, and shards do not
// contend with each other. That makes the shard count part of the scenario,
// like Degree — RunSharded(cfg, b, Sharding{Shards: 4}) simulates a
// different (4-cell) platform than Run(cfg, b) does, not a reordering of
// the same one.
//
// The worker count, by contrast, is pure execution mechanics. The
// determinism contract is:
//
//   - For a fixed shard count, results and recorded traces are
//     byte-identical for every Workers value (each shard derives its seed
//     via parallel.TaskSeed and simulates in isolation; the merge below is
//     a deterministic fold in shard order).
//   - Shards == 1 is exactly Run/RunMixed — the sequential oracle the
//     parallel-equivalence suite compares against.
//
// Both properties are enforced by parallel_equiv_test.go's shard sweeps.

// Sharding configures a partitioned control-plane run.
type Sharding struct {
	// Shards is the number of independent control-plane cells. Values ≤ 1
	// (or above the instance count, after clamping) degenerate to the
	// single-cell Run/RunMixed path.
	Shards int
	// Workers bounds the goroutines simulating shards concurrently. 0 uses
	// GOMAXPROCS; 1 is the sequential oracle. Never affects results.
	Workers int
}

// shardBounds returns the contiguous instance range [lo, hi) of shard s
// when n instances are split across shards cells.
func shardBounds(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// RunSharded simulates a homogeneous burst on a partitioned control plane
// and returns the merged result: per-instance columns concatenated in shard
// order (so position is the global instance index), expenses and fault
// counters summed, per-stage busy time averaged over the cells. If b carries
// a Recorder, each shard records into private memory and the shards' records
// are replayed into it afterwards as one burst — events merged globally by
// time, spans in instance order.
func RunSharded(cfg Config, b Burst, sh Sharding) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := b.Instances()
	shards := sh.Shards
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		return Run(cfg, b)
	}

	recording := b.Recorder != nil
	recs := make([]*obs.Memory, shards)
	results, err := parallel.Map(context.Background(), shards,
		func(_ context.Context, s int) (*Result, error) {
			lo, hi := shardBounds(n, shards, s)
			sb := Burst{
				Demand:           b.Demand,
				Functions:        minInt(hi*b.Degree, b.Functions) - lo*b.Degree,
				Degree:           b.Degree,
				Warm:             clampInt(b.Warm-lo, 0, hi-lo),
				StaggerSec:       b.StaggerSec,
				arrivalOffsetSec: float64(lo) * b.StaggerSec,
				Seed:             parallel.TaskSeed(b.Seed, s),
				Label:            b.Label,
			}
			if recording {
				recs[s] = &obs.Memory{}
				sb.Recorder = recs[s]
			}
			return Run(cfg, sb)
		},
		parallel.Workers(sh.Workers))
	if err != nil {
		return nil, err
	}
	res := mergeShardResults(cfg, results)
	res.Burst = b
	if recording {
		replayShardRecords(b.Recorder, recs, func(s int) int { lo, _ := shardBounds(n, shards, s); return lo }, obs.BurstInfo{
			Platform: cfg.Name, Label: b.Label,
			Functions: b.Functions, Degree: b.Degree, Instances: n,
		})
	}
	return res, nil
}

// RunMixedSharded is RunSharded for heterogeneous bursts: bins are split
// into contiguous shard ranges, everything else follows the same contract.
func RunMixedSharded(cfg Config, m MixedBurst, sh Sharding) (*Result, error) {
	if err := m.Validate(cfg.Shape); err != nil {
		return nil, err
	}
	n := len(m.Bins)
	shards := sh.Shards
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		return RunMixed(cfg, m)
	}

	recording := m.Recorder != nil
	recs := make([]*obs.Memory, shards)
	results, err := parallel.Map(context.Background(), shards,
		func(_ context.Context, s int) (*Result, error) {
			lo, hi := shardBounds(n, shards, s)
			sm := MixedBurst{
				Bins:             m.Bins[lo:hi],
				Warm:             clampInt(m.Warm-lo, 0, hi-lo),
				StaggerSec:       m.StaggerSec,
				arrivalOffsetSec: float64(lo) * m.StaggerSec,
				Seed:             parallel.TaskSeed(m.Seed, s),
				Label:            m.Label,
				// The shard goroutines are the fan-out; nested per-bin
				// worker pools would only oversubscribe.
				Workers: 1,
			}
			if recording {
				recs[s] = &obs.Memory{}
				sm.Recorder = recs[s]
			}
			return RunMixed(cfg, sm)
		},
		parallel.Workers(sh.Workers))
	if err != nil {
		return nil, err
	}
	res := mergeShardResults(cfg, results)
	res.Burst = Burst{
		Functions: m.Functions(), Degree: 0, Warm: m.Warm,
		StaggerSec: m.StaggerSec, Seed: m.Seed,
		Recorder: m.Recorder, Label: m.Label,
	}
	res.Bins = m.Bins
	if recording {
		replayShardRecords(m.Recorder, recs, func(s int) int { lo, _ := shardBounds(n, shards, s); return lo }, obs.BurstInfo{
			Platform: cfg.Name, Label: m.Label,
			Functions: m.Functions(), Instances: n,
		})
	}
	return res, nil
}

// mergeShardResults folds per-shard results into one, in shard order:
// columns concatenated (shard s's rows land at its base index, and a
// Timeline's Index is its position, so nothing is renumbered), money and
// fault counters summed, busy time averaged across the cells (each cell's stations worked
// in parallel, so the mean is the per-cell load, comparable to a
// single-cell run's figure). The summary is folded again over the
// concatenated columns: summing the cells' sums would reassociate them.
func mergeShardResults(cfg Config, results []*Result) *Result {
	n := 0
	for _, r := range results {
		n += r.cols.n
	}
	merged := &Result{Config: cfg, cols: newInstanceColumns(n, cfg.faulty())}
	lo := 0
	for _, r := range results {
		merged.cols.copyAt(lo, &r.cols)
		lo += r.cols.n
		merged.ComputeUSD += r.ComputeUSD
		merged.RequestUSD += r.RequestUSD
		merged.StorageUSD += r.StorageUSD
		merged.WastedUSD += r.WastedUSD
		merged.StartRetries += r.StartRetries
		merged.Crashes += r.Crashes
		merged.Timeouts += r.Timeouts
		merged.HedgesLaunched += r.HedgesLaunched
		merged.HedgesWon += r.HedgesWon
		merged.SchedBusySec += r.SchedBusySec
		merged.BuildBusySec += r.BuildBusySec
		merged.ShipBusySec += r.ShipBusySec
	}
	inv := 1 / float64(len(results))
	merged.SchedBusySec *= inv
	merged.BuildBusySec *= inv
	merged.ShipBusySec *= inv
	merged.fold(false, nil)
	return merged
}

// replayShardRecords replays the shards' private recordings into the
// caller's recorder as one burst: a single BeginBurst, then every event
// across shards in global time order (ties broken by shard, then emission
// order — a deterministic merge independent of worker scheduling), then
// every span in shard order, which is global instance order. Instance
// indices are rebased from shard-local to global.
func replayShardRecords(rec obs.Recorder, recs []*obs.Memory, baseOf func(s int) int, info obs.BurstInfo) {
	rec.BeginBurst(info)
	type tagged struct {
		ev    obs.Event
		shard int
		ord   int
	}
	var events []tagged
	for s, m := range recs {
		lo := baseOf(s)
		for _, br := range m.Bursts() {
			for i, ev := range br.Events {
				ev.Instance += lo
				events = append(events, tagged{ev: ev, shard: s, ord: i})
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.ev.AtSec != b.ev.AtSec {
			return a.ev.AtSec < b.ev.AtSec
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.ord < b.ord
	})
	for _, t := range events {
		rec.Event(t.ev)
	}
	for s, m := range recs {
		lo := baseOf(s)
		for _, br := range m.Bursts() {
			for _, sp := range br.Spans {
				sp.Instance += lo
				rec.Span(sp)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String implements fmt.Stringer for error and log contexts.
func (s Sharding) String() string {
	return fmt.Sprintf("Sharding{Shards: %d, Workers: %d}", s.Shards, s.Workers)
}
