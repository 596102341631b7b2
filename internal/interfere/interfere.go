// Package interfere models the performance interference among functions
// packed together inside one serverless function instance.
//
// This is the *ground truth* the simulator executes: packed functions run as
// threads sharing the instance's CPU cores and memory bandwidth (the paper
// packs them as no-GIL CPython threads on a 6-core / 10 GB Lambda). ProPack
// never sees this model — it samples execution times and fits its own
// exponential model (Eq. 1) to them, exactly as it must against a real
// cloud.
//
// Shape of the ground truth. The paper's measurements (Fig. 4) found the
// degree→execution-time relationship on real platforms to be monotone and
// well described by an exponential; we therefore model contention as a
// compound per-thread friction — each added thread costs a roughly constant
// *fraction* of throughput (cache lines evicted, runtime locks, bandwidth
// stalls), which composes multiplicatively:
//
//	ET(d) = solo · exp(κ·(d−1)) , κ = ContentionRate·(u + BWWeight·bwPressure)/Cores
//
// where u is the function's CPU utilization (CPU/(CPU+IO)) and bwPressure
// the fraction of the instance's memory bandwidth the application would pull
// with all cores busy. Compute-bound, bandwidth-hungry functions (Smith-
// Waterman) thus degrade much faster than I/O-heavy ones (Stateless Cost),
// matching the paper's observation that packing degrees are application-
// specific. A work-conservation floor keeps the model physical: d functions
// needing CPUSeconds each can never finish faster than the cores allow.
package interfere

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Demand describes the resource appetite of one logical function.
type Demand struct {
	// CPUSeconds is the pure compute time of one function on a dedicated
	// core with uncontended memory bandwidth.
	CPUSeconds float64
	// IOSeconds is time blocked on network/storage in a solo run. I/O waits
	// from different packed functions overlap with each other's compute, so
	// they contend far less than CPU.
	IOSeconds float64
	// MemoryMB is the peak resident footprint of one function. It bounds the
	// maximum packing degree: floor(instance memory / MemoryMB).
	MemoryMB float64
	// MemBWMBps is the sustained memory-bandwidth demand of one function
	// during its compute phase.
	MemBWMBps float64
	// InputMB and OutputMB are bytes moved to/from remote storage per
	// function. They drive storage latency and network-fee accounting.
	InputMB  float64
	OutputMB float64
	// ShuffleFraction is the fraction of OutputMB destined to sibling
	// functions of the same application (e.g. a map-reduce shuffle). When
	// siblings are packed into the same instance that traffic becomes local,
	// which is why packing shrinks network fees on platforms that charge
	// them (paper Fig. 21).
	ShuffleFraction float64
	// SharedInput marks applications whose functions all read the same
	// input object (e.g. the Video benchmark's 5.2 MB clip); a packed
	// instance fetches it once.
	SharedInput bool
}

// Validate reports an error for demands the model cannot execute. NaN is one:
// it passes every `x < 0`-shaped check, and an execution time built from it
// panics the simulator instead of failing validation.
func (d Demand) Validate() error {
	switch {
	case !stats.FiniteNonNeg(d.CPUSeconds, d.IOSeconds):
		return fmt.Errorf("interfere: negative or non-finite time demand %+v", d)
	case d.CPUSeconds == 0 && d.IOSeconds == 0:
		return fmt.Errorf("interfere: demand with zero work")
	case !stats.FiniteNonNeg(d.MemoryMB) || d.MemoryMB == 0:
		return fmt.Errorf("interfere: memory %g MB not positive and finite", d.MemoryMB)
	case !stats.FiniteNonNeg(d.MemBWMBps):
		return fmt.Errorf("interfere: negative or non-finite memory bandwidth")
	case !stats.FiniteNonNeg(d.InputMB, d.OutputMB):
		return fmt.Errorf("interfere: negative or non-finite storage traffic %g MB in, %g MB out", d.InputMB, d.OutputMB)
	case !(d.ShuffleFraction >= 0 && d.ShuffleFraction <= 1):
		return fmt.Errorf("interfere: shuffle fraction %g outside [0,1]", d.ShuffleFraction)
	default:
		return nil
	}
}

// SoloSeconds is the execution time of one function running alone in an
// instance with uncontended resources.
func (d Demand) SoloSeconds() float64 { return d.CPUSeconds + d.IOSeconds }

// Utilization is the fraction of a solo run spent on a core.
func (d Demand) Utilization() float64 {
	solo := d.SoloSeconds()
	if solo == 0 {
		return 0
	}
	return d.CPUSeconds / solo
}

// Shape describes the execution resources of one function instance.
type Shape struct {
	Cores     int     // vCPUs available to packed threads (6 on 10 GB Lambda)
	MemoryMB  float64 // instance memory (10240 on Lambda's largest size)
	MemBWMBps float64 // aggregate memory bandwidth of the instance

	// ContentionRate is κ0: the per-unit-pressure exponential contention
	// rate of co-scheduled threads. Higher means packing hurts more.
	ContentionRate float64
	// BWWeight scales how much memory-bandwidth pressure contributes to
	// contention relative to CPU utilization.
	BWWeight float64
	// CrossDiscount is the contention discount between *different*
	// applications sharing an instance: diverse threads interleave better
	// than same-type threads (they do not collide on identical cache
	// footprints and bandwidth bursts), so a co-resident of a different
	// demand contributes only (1−CrossDiscount) of its pressure.
	// Homogeneous packing is unaffected.
	CrossDiscount float64
	// IsolationFactor multiplies packed execution time to reflect how well
	// the virtualization layer isolates co-resident threads from the rest of
	// the host (Firecracker microVMs isolate better than shared Kubernetes
	// pods — paper Fig. 18). 1.0 is perfect isolation.
	IsolationFactor float64
}

// Validate reports an error for malformed shapes.
func (s Shape) Validate() error {
	switch {
	case s.Cores < 1:
		return fmt.Errorf("interfere: instance needs ≥1 core, have %d", s.Cores)
	case !stats.FiniteNonNeg(s.MemoryMB) || s.MemoryMB == 0:
		return fmt.Errorf("interfere: instance memory not positive and finite")
	case !stats.FiniteNonNeg(s.MemBWMBps) || s.MemBWMBps == 0:
		return fmt.Errorf("interfere: instance bandwidth not positive and finite")
	case !stats.FiniteNonNeg(s.ContentionRate, s.BWWeight):
		return fmt.Errorf("interfere: negative or non-finite contention parameters")
	case !(s.CrossDiscount >= 0 && s.CrossDiscount <= 1):
		return fmt.Errorf("interfere: cross discount %g outside [0,1]", s.CrossDiscount)
	case !stats.FiniteNonNeg(s.IsolationFactor) || s.IsolationFactor == 0:
		return fmt.Errorf("interfere: isolation factor not positive and finite")
	default:
		return nil
	}
}

// MaxDegree is the maximum number of functions that fit in the instance:
// floor(MemoryMB / demand.MemoryMB), at least 0.
func (s Shape) MaxDegree(d Demand) int {
	if d.MemoryMB <= 0 {
		return 0
	}
	return int(s.MemoryMB / d.MemoryMB)
}

// ContentionKappa is κ: the per-degree exponential contention exponent of
// this demand on this shape.
func (s Shape) ContentionKappa(d Demand) float64 {
	bwPressure := 0.0
	if s.MemBWMBps > 0 {
		bwPressure = math.Min(1, float64(s.Cores)*d.MemBWMBps/s.MemBWMBps)
	}
	return s.ContentionRate * (d.Utilization() + s.BWWeight*bwPressure) / float64(s.Cores)
}

// ExecSeconds returns the wall-clock execution time of one instance running
// `degree` copies of the function concurrently as threads: the exponential
// contention model described in the package comment, floored by work
// conservation (d·CPUSeconds of compute cannot beat the core count), and
// scaled by the platform's isolation factor.
//
// Degree 0 or negative panics: it indicates a caller bug, not bad data.
func ExecSeconds(d Demand, s Shape, degree int) float64 {
	if degree < 1 {
		panic(fmt.Sprintf("interfere: non-positive packing degree %d", degree))
	}
	dd := float64(degree)
	kappa := s.ContentionKappa(d)
	et := d.SoloSeconds() * math.Exp(kappa*(dd-1))
	// Work conservation: degree·CPUSeconds of compute over Cores cores,
	// plus the (overlappable, hence unstretched) I/O phase.
	if floor := d.CPUSeconds*dd/float64(s.Cores) + d.IOSeconds; floor > et {
		et = floor
	}
	return et * s.IsolationFactor
}
