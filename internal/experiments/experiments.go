// Package experiments contains one driver per figure of the paper's
// evaluation (Figs. 1–2 of the motivation, Figs. 4–21 of the design and
// evaluation sections, plus the Sec. 2.4 χ² validation). Each driver
// regenerates the rows/series of its figure against the simulated
// platforms; `cmd/expgen` prints them and `bench_test.go` exposes one
// testing.B benchmark per driver.
//
// Absolute numbers come from a simulator, not the authors' testbed: the
// claims to check are the *shapes* — who wins, by what rough factor, and
// where the crossovers fall. EXPERIMENTS.md records paper-vs-measured for
// each driver.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all jittered executions; the default 0 is a valid seed.
	Seed int64
	// Quick shrinks concurrency grids so the full suite runs in seconds
	// (used by unit tests); the default false reproduces the paper's grids.
	Quick bool
}

// forAll evaluates n independent grid cells of a figure on GOMAXPROCS
// parallel workers and returns the per-cell results in cell order. Cells
// must be pure functions of their index (all randomness from cfg.Seed plus
// the cell's own coordinates) so the table bytes stay independent of the
// worker count.
func forAll[R any](n int, fn func(i int) (R, error)) ([]R, error) {
	return parallel.Map(context.Background(), n, func(_ context.Context, i int) (R, error) {
		return fn(i)
	})
}

// tabulate fans a figure's n cells out with forAll and appends each cell's
// rows to t in cell order, so the table's bytes stay independent of the
// worker count.
func tabulate(t *trace.Table, n int, cell func(i int) ([][]string, error)) (*trace.Table, error) {
	cells, err := forAll(n, cell)
	if err != nil {
		return nil, err
	}
	for _, rows := range cells {
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t, nil
}

// concurrencies is the paper's evaluation grid (Figs. 8–11 etc.).
func (c Config) concurrencies() []int {
	if c.Quick {
		return []int{1000, 2000}
	}
	return []int{1000, 2000, 3000, 4000, 5000}
}

// topConcurrency is the high-concurrency operating point headline numbers
// are quoted at.
func (c Config) topConcurrency() int {
	if c.Quick {
		return 2000
	}
	return 5000
}

// midConcurrency is the operating point of the absolute-value figure
// (Fig. 12) and the expense-curve figure (Fig. 7).
func (c Config) midConcurrency() int {
	if c.Quick {
		return 1000
	}
	return 2000
}

// Experiment is one reproducible figure.
type Experiment struct {
	// ID is the figure identifier, e.g. "fig9" or "validation".
	ID string
	// Title summarizes what the paper's figure shows.
	Title string
	// Run executes the experiment and returns its table.
	Run func(Config) (*trace.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Scaling time as a fraction of total service time across providers", Run: Fig1},
		{ID: "fig2", Title: "Scheduling, start-up, and shipping times all grow with concurrency", Run: Fig2},
		{ID: "fig4", Title: "Execution time vs packing degree: observations and Eq. 1 fits", Run: Fig4},
		{ID: "fig5a", Title: "Execution time of an instance is unaffected by concurrency", Run: Fig5a},
		{ID: "fig5b", Title: "Scaling time is application-independent", Run: Fig5b},
		{ID: "fig6", Title: "Scaling time decreases with packing degree at fixed concurrency", Run: Fig6},
		{ID: "fig7", Title: "Expense is not monotonic in packing degree", Run: Fig7},
		{ID: "fig8", Title: "Oracle packing degrees vs ProPack across concurrency levels", Run: Fig8},
		{ID: "fig9", Title: "ProPack's total service time improvement over no packing", Run: Fig9},
		{ID: "fig10", Title: "ProPack's scaling time improvement over no packing", Run: Fig10},
		{ID: "fig11", Title: "ProPack's expense reduction over no packing", Run: Fig11},
		{ID: "fig12", Title: "Absolute service function-hours and expense at mid concurrency", Run: Fig12},
		{ID: "fig13", Title: "ProPack (service time objective) vs joint objective", Run: Fig13},
		{ID: "fig14", Title: "ProPack (expense objective) vs joint objective", Run: Fig14},
		{ID: "fig15", Title: "Oracle degree rises as expense gains importance", Run: Fig15},
		{ID: "fig16", Title: "Sensitivity to the service/expense weights (Stateless Cost)", Run: Fig16},
		{ID: "fig17", Title: "Smith-Waterman: service, scaling, and expense improvements", Run: Fig17},
		{ID: "fig18", Title: "FuncX vs AWS Lambda: scaling and ProPack's effect", Run: Fig18},
		{ID: "fig19", Title: "ProPack vs Pywren: service time and expense", Run: Fig19},
		{ID: "fig20", Title: "Xapian under a QoS tail-latency bound", Run: Fig20},
		{ID: "fig21", Title: "ProPack across AWS, Google, and Azure", Run: Fig21},
		{ID: "validation", Title: "Sec. 2.4 Pearson χ² goodness-of-fit of ProPack's models", Run: Validation},
		{ID: "ablation", Title: "Ablations: sampling policy, scaling-model order, Eq. 1 intercept, alternatives", Run: Ablation},
		{ID: "ext-hetero", Title: "Extension: heterogeneous (cross-application) packing (Sec. 5)", Run: ExtHetero},
		{ID: "ext-provider", Title: "Extension: provider-side mitigation shrinks the optimal degree (Sec. 5)", Run: ExtProvider},
		{ID: "ext-throttle", Title: "Extension: packing dodges account concurrency limits", Run: ExtThrottle},
		{ID: "ext-decentral", Title: "Extension: decentralized scheduling is complementary to packing (Sec. 5)", Run: ExtDecentral},
		{ID: "ext-amortize", Title: "Extension: modeling overhead amortizes across runs (Sec. 2.2)", Run: ExtAmortize},
		{ID: "ext-joint", Title: "Extension: joint degree × memory planning (exhaustive Eq. 7 scan)", Run: ExtJoint},
	}
}

// ByID finds an experiment; the error lists valid IDs.
func ByID(id string) (Experiment, error) {
	var ids []string
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// pct and spct render percentages; NaN (e.g. trace.Improvement over a zero
// base) reads "n/a" rather than a fake number.
func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", v)
}

func spct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", v)
}

func sec(v float64) string  { return fmt.Sprintf("%.1fs", v) }
func usd(v float64) string  { return fmt.Sprintf("$%.2f", v) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func frac(v float64) string { return fmt.Sprintf("%.2f", v) }
