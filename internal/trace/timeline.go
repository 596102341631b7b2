package trace

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/platform"
)

// timelineCSVHeader names WriteTimelinesCSV's columns. straggled and
// hedge_extra_sec trail the original fourteen so positional readers of the
// older layout keep working.
const timelineCSVHeader = "index,degree,warm,retries,sched_done,build_done,ship_done,start,end,crashes,timeouts,failed_sec,hedged,hedge_won,straggled,hedge_extra_sec"

// WriteTimelinesCSV dumps a burst's per-instance timelines as CSV — the raw
// material for Gantt-style plots of the scaling behaviour. One row per
// instance carries every Timeline field (control-plane milestones, start,
// end, degree, fault and hedge outcomes), so per-instance billing such as
// the wasted seconds behind Result.WastedUSD can be recomputed from the
// file. Output is buffered: w sees a few large writes, not one per row.
func WriteTimelinesCSV(w io.Writer, res *platform.Result) error {
	if res == nil {
		return fmt.Errorf("trace: nil result")
	}
	bw := bufio.NewWriter(w)
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	// bufio.Writer latches its first error and Flush returns it, so the row
	// writes need no individual checks.
	fmt.Fprintln(bw, timelineCSVHeader)
	for _, tl := range res.Timelines() {
		fmt.Fprintf(bw, "%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%.6f,%d,%d,%d,%.6f\n",
			tl.Index, tl.Degree, b2i(tl.Warm), tl.Retries,
			tl.SchedDone, tl.BuildDone, tl.ShipDone, tl.Start, tl.End,
			tl.Crashes, tl.Timeouts, tl.FailedSec, b2i(tl.Hedged), b2i(tl.HedgeWon),
			tl.Straggled, tl.HedgeExtraSec)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write timelines CSV: %w", err)
	}
	return nil
}
