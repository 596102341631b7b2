package core

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// ErrNonMonotoneSizes is returned when a memory-size grid is not strictly
// increasing. The joint planner's row bounds, the baseline convention
// (largest size last), and the probe schedule all assume an ordered grid,
// so a shuffled or duplicated grid is rejected up front rather than
// silently producing a misbaselined plan.
var ErrNonMonotoneSizes = errors.New("core: memory size grid not strictly increasing")

// Validate reports an error if the grid cannot be planned over: its sizes must
// pass checkSizeGrid and every size's models must validate (errors name it).
func (g GridModels) Validate() error {
	if err := checkSizeGrid(g.MemSizesMB()); err != nil {
		return err
	}
	for _, s := range g.Sizes {
		if err := s.Models.Validate(); err != nil {
			return fmt.Errorf("core: memory size %g MB: %w", s.MemMB, err)
		}
	}
	return nil
}

// checkSizeGrid is every entrance's test of a memory grid, made before any one
// size is looked at: non-empty, positive, strictly increasing.
func checkSizeGrid(sizesMB []float64) error {
	if len(sizesMB) == 0 {
		return fmt.Errorf("core: empty memory size grid")
	}
	for i, mb := range sizesMB {
		if mb <= 0 {
			return fmt.Errorf("core: non-positive memory size %g MB", mb)
		}
		if !stats.FiniteNonNeg(mb) {
			return fmt.Errorf("core: non-finite memory size %g MB", mb)
		}
		if i > 0 && mb <= sizesMB[i-1] {
			return fmt.Errorf("%w: %g MB after %g MB", ErrNonMonotoneSizes, mb, sizesMB[i-1])
		}
	}
	return nil
}

// The paper's validation setup (Sec. 2.4): 14 degrees of freedom (15 − 1,
// from the Sort application's 15 packing degrees — the smallest maximum in
// the suite) at 99.5% confidence, giving a critical value of ≈4.075.
const (
	PaperValidationDF       = 14
	PaperValidationLeftTail = 0.005
)

// Validation is the outcome of the Pearson χ² goodness-of-fit test of one
// modeled quantity against observations across packing degrees.
type Validation struct {
	Quantity string
	stats.GoodnessOfFit
}

func (v Validation) String() string {
	verdict := "ACCEPT"
	if !v.Accepted {
		verdict = "REJECT"
	}
	return fmt.Sprintf("%s: χ²=%.4g ≤ crit=%.4g (df=%d) → %s",
		v.Quantity, v.Stat, v.Critical, v.DF, verdict)
}

// Observation is a measured (service time, expense) pair at one packing
// degree and concurrency, produced by actually running the application.
type Observation struct {
	Degree     int
	ServiceSec float64
	ExpenseUSD float64
}

// ValidateModels runs the paper's χ² test: for each observation, the
// expected value comes from the analytical models at the same concurrency
// and degree; the statistic is compared against the χ² critical value at
// 99.5% confidence with df degrees of freedom (pass PaperValidationDF to
// match the paper exactly).
func (m Models) ValidateModels(c int, obs []Observation, df int) (service, expense Validation, err error) {
	if len(obs) == 0 {
		return Validation{}, Validation{}, fmt.Errorf("core: no observations to validate against")
	}
	obsS := make([]float64, len(obs))
	expS := make([]float64, len(obs))
	obsE := make([]float64, len(obs))
	expE := make([]float64, len(obs))
	for i, o := range obs {
		if o.Degree < 1 {
			return Validation{}, Validation{}, fmt.Errorf("core: observation with degree %d", o.Degree)
		}
		obsS[i] = o.ServiceSec
		expS[i] = m.ServiceTime(c, o.Degree)
		obsE[i] = o.ExpenseUSD
		expE[i] = m.Expense(c, o.Degree)
	}
	gofS, err := stats.ChiSquareTest(obsS, expS, df, PaperValidationLeftTail)
	if err != nil {
		return Validation{}, Validation{}, fmt.Errorf("core: service-time χ²: %w", err)
	}
	gofE, err := stats.ChiSquareTest(obsE, expE, df, PaperValidationLeftTail)
	if err != nil {
		return Validation{}, Validation{}, fmt.Errorf("core: expense χ²: %w", err)
	}
	return Validation{Quantity: "service time", GoodnessOfFit: gofS},
		Validation{Quantity: "expense", GoodnessOfFit: gofE}, nil
}
