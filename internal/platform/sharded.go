package platform

import (
	"context"
	"errors"

	"repro/internal/parallel"
)

// Sharded simulation: a burst partitioned across independent control planes.
//
// A single control plane is globally coupled — every instance contends for
// the same scheduler, builder, and shipper. Sharding models the partitioned
// (cellular) control plane real providers run at scale: cell s owns a
// contiguous range of instances, its own station set and a jitter stream
// seeded by parallel.TaskSeed, and cells do not contend with each other. That
// makes the cell count part of the scenario, like Degree —
// RunSharded(cfg, b, Sharding{Shards: 4}) simulates a different (4-cell)
// platform than Run(cfg, b) does, not a reordering of the same one. The
// cells run concurrently and merge in cell order, so the result does not
// depend on how they were scheduled; Shards == 1 is exactly Run.

// Sharding configures a partitioned control-plane run.
type Sharding struct {
	// Shards is the number of independent control-plane cells. Values ≤ 1
	// (or above the instance count, after clamping) degenerate to the
	// single-cell Run path.
	Shards int
}

// Cells share no clock and no recording, so a multi-cell run has neither
// staggered arrivals nor a Recorder.
var (
	errShardedStagger  = errors.New("platform: a multi-cell burst cannot stagger its arrivals")
	errShardedRecorder = errors.New("platform: a multi-cell burst cannot be recorded")
)

// shardBounds returns the contiguous instance range [lo, hi) of shard s
// when n instances are split across shards cells.
func shardBounds(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// RunSharded simulates a homogeneous burst on a partitioned control plane
// and returns the merged result: per-instance columns concatenated in cell
// order (so position is the global instance index), expenses and fault
// counters summed, per-stage busy time averaged over the cells. A burst
// split across more than one cell must be unstaggered and unrecorded.
func RunSharded(cfg Config, b Burst, sh Sharding) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := b.Instances()
	shards := min(sh.Shards, n)
	if shards <= 1 {
		return Run(cfg, b)
	}
	switch {
	case b.StaggerSec > 0:
		return nil, errShardedStagger
	case b.Recorder != nil:
		return nil, errShardedRecorder
	}
	results, err := parallel.Map(context.Background(), shards,
		func(_ context.Context, s int) (*Result, error) {
			lo, hi := shardBounds(n, shards, s)
			return Run(cfg, Burst{
				Demand:    b.Demand,
				Functions: min(hi*b.Degree, b.Functions) - lo*b.Degree,
				Degree:    b.Degree,
				Warm:      min(max(b.Warm-lo, 0), hi-lo),
				Seed:      parallel.TaskSeed(b.Seed, s),
				Label:     b.Label,
			})
		})
	if err != nil {
		return nil, err
	}
	res := mergeShardResults(cfg, results)
	res.Burst = b
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
