package core

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Reliability-aware planning: ProPack's whole pitch is co-locating P
// functions per instance — which also makes each instance crash P times as
// expensive, a trade-off the paper never models. A crash at degree P loses
// all P functions' work and re-runs the whole instance, and the failed
// attempt is still billed. FailureModel captures that cost analytically so
// the Eq. 4–7 optimizer can shift to lower packing degrees as failure rates
// rise.

// FailureModel describes the platform's mid-execution failure behaviour for
// planning purposes: instances crash at CrashRate crashes per
// instance-second (exponentially distributed crash times, matching the
// simulator's injection), and a crashed instance re-enters the control
// plane after RetryDelaySec. The zero value models a failure-free platform
// and reproduces the failure-blind planner exactly.
type FailureModel struct {
	// CrashRate is λ, in crashes per instance-second of execution.
	CrashRate float64
	// RetryDelaySec is the back-off before a crashed instance re-runs;
	// it delays completion but is not billed.
	RetryDelaySec float64
}

// Validate reports an error for malformed failure models.
func (f FailureModel) Validate() error {
	if f.CrashRate < 0 || f.RetryDelaySec < 0 {
		return fmt.Errorf("core: negative failure-model parameter %+v", f)
	}
	if !stats.FiniteNonNeg(f.CrashRate, f.RetryDelaySec) {
		return fmt.Errorf("core: non-finite failure-model parameter %+v", f)
	}
	return nil
}

// Enabled reports whether the model injects any failures.
func (f FailureModel) Enabled() bool { return f.CrashRate > 0 }

// ExpectedAttempts is the expected number of executions (including the
// successful one) of an instance whose attempt takes T seconds: each
// attempt survives with probability exp(−λT), so the count is geometric
// with mean exp(λT).
func (f FailureModel) ExpectedAttempts(T float64) float64 {
	if !f.Enabled() {
		return 1
	}
	return math.Exp(f.CrashRate * T)
}

// ExpectedBilledSec is the expected billed execution time of an instance
// whose attempt takes T seconds, counting the partial time of every crashed
// attempt: (e^{λT} − 1)/λ. It reduces to T as λ → 0 and grows exponentially
// with T — exactly the degree-P penalty the planner must see, since T=ET(P)
// rises with packing degree.
func (f FailureModel) ExpectedBilledSec(T float64) float64 {
	if !f.Enabled() {
		return T
	}
	return (math.Exp(f.CrashRate*T) - 1) / f.CrashRate
}

// ExpectedLatencySec is the expected wall-clock time until the instance
// completes: the billed execution time plus one retry delay per expected
// failure.
func (f FailureModel) ExpectedLatencySec(T float64) float64 {
	if !f.Enabled() {
		return T
	}
	failures := math.Exp(f.CrashRate*T) - 1
	return f.ExpectedBilledSec(T) + failures*f.RetryDelaySec
}
