// Package platform simulates commercial serverless control planes (AWS
// Lambda, Google Cloud Functions, Microsoft Azure Functions) at the level
// the paper's measurements resolve them.
//
// A function invocation burst flows through three queued resources, matching
// the paper's root-cause analysis of scaling time (Sec. 1, Fig. 2):
//
//  1. the *scheduler*, whose placement search slows down as the datacenter
//     fills (per-placement cost grows with instances already placed — this
//     is what makes scaling time quadratic in concurrency);
//  2. the *image server*, which builds containers/microVMs by downloading
//     and installing the runtime and dependencies with finite parallelism;
//  3. the *shipping* path, which moves built images to their hosts over a
//     shared NIC.
//
// Scaling behaviour therefore *emerges* from contention; ProPack (which
// never sees these constants) has to rediscover it by polynomial
// regression, exactly as it does against the real platforms.
package platform

import (
	"fmt"

	"repro/internal/interfere"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Config holds every constant of one simulated platform. Use a preset
// (AWSLambda, GoogleCloudFunctions, AzureFunctions) and override fields as
// needed.
type Config struct {
	Name string

	// Shape describes one function instance's execution resources.
	Shape interfere.Shape

	// Scheduler: placement of instance k costs
	// SchedBaseSec + SchedPerBusySec·(instances already placed).
	SchedBaseSec    float64
	SchedPerBusySec float64
	SchedServers    int

	// Image server: each cold instance needs one build on one of
	// BuildServers parallel builders; the k-th build costs
	// BuildSec + BuildGrowthSec·k (image registries and dependency caches
	// slow down as the burst floods them).
	BuildSec       float64
	BuildGrowthSec float64
	BuildServers   int

	// Shipping: each built image occupies the NIC for
	// ShipSec + ShipGrowthSec·(images already shipped) on one of
	// ShipServers channels.
	ShipSec       float64
	ShipGrowthSec float64
	ShipServers   int

	// BootSec is the microVM/container boot time at the host.
	BootSec float64

	// WarmStartSec replaces build+ship+boot for a reused (warm) instance.
	WarmStartSec float64

	// PodSize groups instances into pods that share one build+ship (FuncX
	// runs workers inside Kubernetes pods). 0 or 1 means no pods.
	PodSize int

	// Billing.
	GBSecondUSD   float64 // compute price per GB·second
	PerRequestUSD float64 // per-invocation fee
	Storage       storage.Pricing
	StorageGBps   float64 // per-instance transfer bandwidth to the store

	// JitterRel is the relative std-dev of execution-time noise.
	JitterRel float64

	// MaxExecSec is the platform's execution-time limit (900 s on Lambda);
	// an instance whose execution would exceed it fails the burst.
	MaxExecSec float64

	// ConcurrencyLimit is the account-level cap on simultaneously running
	// instances (AWS accounts default to 1000 concurrent executions;
	// the paper's 5000-way experiments require a raised limit). Invocations
	// beyond the limit are throttled: they wait for a running instance to
	// finish before entering the scheduler. 0 means unlimited. Packing
	// sidesteps throttling by shrinking the instance count — an additional
	// benefit beyond the paper's scaling-time argument.
	ConcurrencyLimit int

	// StartFailureProb is the probability that a cold instance fails to
	// come up (image pull error, placement race) and must be re-submitted
	// to the scheduler after RetryDelaySec. Retried instances lengthen the
	// scaling tail — a real-cloud effect the failure-injection tests
	// exercise. 0 disables failures.
	StartFailureProb float64
	// RetryDelaySec is the back-off before a failed start re-enters the
	// scheduler queue.
	RetryDelaySec float64
	// MaxStartRetries bounds re-submissions per instance; an instance that
	// exhausts them fails the whole burst. 0 means the default (3).
	MaxStartRetries int

	// CrashRate injects mid-execution instance crashes, in crashes per
	// instance-second: an attempt that runs for t seconds survives with
	// probability exp(−CrashRate·t). A crash loses the work of every
	// function packed in the instance; the partial attempt is billed
	// (compute + request fee) and the instance re-enters the scheduler via
	// Retry. 0 disables crashes.
	CrashRate float64
	// StragglerProb is the per-attempt probability that execution runs
	// StragglerFactor× slower (degraded host, noisy neighbour).
	StragglerProb float64
	// StragglerFactor is the slowdown multiplier of straggling attempts;
	// must be ≥ 1 when StragglerProb > 0.
	StragglerFactor float64
	// ExecTimeoutSec kills attempts that execute longer than this; the
	// timed-out attempt is billed and retried like a crash. 0 disables the
	// timeout (MaxExecSec still rejects over-long bursts up front).
	ExecTimeoutSec float64
	// Retry is the backoff policy for crashed and timed-out attempts and,
	// when set, for failed cold starts too. The zero value preserves the
	// legacy behaviour: fixed RetryDelaySec with the MaxStartRetries
	// budget.
	Retry resilience.Backoff
	// Hedge launches one speculative duplicate for attempts still running
	// past the fleet's Hedge.Quantile-th percentile execution duration;
	// the first finisher wins and the loser's compute is billed as waste.
	// The zero value disables hedging.
	Hedge resilience.Hedge
}

// Validate reports an error for configurations the simulator cannot run.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("platform: empty name")
	}
	if err := c.Shape.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", c.Name, err)
	}
	// NaN-proof: NaN fails `x < 0`, then panics the engine or reads as "off".
	switch {
	case !stats.FiniteNonNeg(c.SchedBaseSec, c.SchedPerBusySec, c.BuildSec, c.BuildGrowthSec,
		c.ShipSec, c.ShipGrowthSec, c.BootSec, c.WarmStartSec):
		return fmt.Errorf("platform %s: negative or non-finite stage time", c.Name)
	case c.SchedServers < 1 || c.BuildServers < 1 || c.ShipServers < 1:
		return fmt.Errorf("platform %s: stage parallelism must be ≥1", c.Name)
	case c.PodSize < 0:
		return fmt.Errorf("platform %s: negative pod size", c.Name)
	case !stats.FiniteNonNeg(c.GBSecondUSD, c.PerRequestUSD,
		c.Storage.PutRequestUSD, c.Storage.GetRequestUSD, c.Storage.EgressPerGBUSD):
		return fmt.Errorf("platform %s: negative or non-finite price", c.Name)
	case !stats.FiniteNonNeg(c.StorageGBps) || c.StorageGBps == 0:
		return fmt.Errorf("platform %s: storage bandwidth %g not positive and finite", c.Name, c.StorageGBps)
	case !(c.JitterRel >= 0 && c.JitterRel <= 0.2):
		return fmt.Errorf("platform %s: jitter %g outside [0, 0.2]", c.Name, c.JitterRel)
	case !(c.MaxExecSec > 0):
		return fmt.Errorf("platform %s: non-positive execution limit", c.Name)
	case c.ConcurrencyLimit < 0:
		return fmt.Errorf("platform %s: negative concurrency limit", c.Name)
	case !(c.StartFailureProb >= 0 && c.StartFailureProb < 1):
		return fmt.Errorf("platform %s: start-failure probability %g outside [0,1)", c.Name, c.StartFailureProb)
	case !stats.FiniteNonNeg(c.RetryDelaySec) || c.MaxStartRetries < 0:
		return fmt.Errorf("platform %s: negative or non-finite retry parameters", c.Name)
	case !stats.FiniteNonNeg(c.CrashRate):
		return fmt.Errorf("platform %s: crash rate %g negative or non-finite", c.Name, c.CrashRate)
	case !(c.StragglerProb >= 0 && c.StragglerProb < 1):
		return fmt.Errorf("platform %s: straggler probability %g outside [0,1)", c.Name, c.StragglerProb)
	case !stats.FiniteNonNeg(c.StragglerFactor) || c.StragglerProb > 0 && c.StragglerFactor < 1:
		return fmt.Errorf("platform %s: straggler factor %g not finite and ≥ 1", c.Name, c.StragglerFactor)
	case !stats.FiniteNonNeg(c.ExecTimeoutSec):
		return fmt.Errorf("platform %s: execution timeout %g negative or non-finite", c.Name, c.ExecTimeoutSec)
	}
	if err := c.Retry.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", c.Name, err)
	}
	if err := c.Hedge.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", c.Name, err)
	}
	return nil
}

// faulty reports whether the configuration rolls any fault dice or hedges:
// all that writes a run's fault and hedge columns and backoff scratch, and
// (with the account throttle) all that keeps an instance's tail evented.
func (c Config) faulty() bool {
	return c.StartFailureProb > 0 || c.StragglerProb > 0 || c.CrashRate > 0 ||
		c.ExecTimeoutSec > 0 || c.Hedge.Enabled()
}

// retryPolicy is the effective backoff policy for retried attempts: the
// configured one, or the legacy fixed-delay policy when unset.
func (c Config) retryPolicy() resilience.Backoff {
	if c.Retry.IsZero() {
		return resilience.Backoff{Kind: resilience.Fixed, BaseSec: c.RetryDelaySec}
	}
	return c.Retry
}

// MemoryGB is the billed memory size of one instance.
func (c Config) MemoryGB() float64 { return c.Shape.MemoryMB / 1024 }

// lambdaMBPerVCPU is Lambda's memory-to-compute coupling: roughly one vCPU
// per 1769 MB of configured memory.
const lambdaMBPerVCPU = 1769

// WithMemory returns the configuration resized to a smaller instance
// memory, with compute resources scaled the way Lambda scales them: vCPUs
// (and with them memory bandwidth) grow proportionally with configured
// memory. The paper fixes the maximum size (10 GB → 6 vCPUs) "to achieve a
// considerable maximum packing degree"; this knob lets the sizing ablation
// test that choice. mb must be positive and at most the preset's size.
func (c Config) WithMemory(mb float64) (Config, error) {
	if mb <= 0 {
		return Config{}, fmt.Errorf("platform %s: non-positive memory %g", c.Name, mb)
	}
	if mb > c.Shape.MemoryMB {
		return Config{}, fmt.Errorf("platform %s: %g MB exceeds the platform maximum %g",
			c.Name, mb, c.Shape.MemoryMB)
	}
	cores := int(mb/lambdaMBPerVCPU + 0.5)
	if cores < 1 {
		cores = 1
	}
	out := c
	out.Shape.MemBWMBps = c.Shape.MemBWMBps * float64(cores) / float64(c.Shape.Cores)
	out.Shape.Cores = cores
	out.Shape.MemoryMB = mb
	return out, nil
}

// lambdaShape is the 10 GB / 6-core Firecracker microVM the paper packs
// into. Firecracker's isolation is the best of the evaluated platforms
// (paper Fig. 18), hence IsolationFactor 1.
func lambdaShape() interfere.Shape {
	return interfere.Shape{
		Cores:           6,
		MemoryMB:        10240,
		MemBWMBps:       25600,
		ContentionRate:  0.38,
		BWWeight:        0.3,
		CrossDiscount:   0.25,
		IsolationFactor: 1.0,
	}
}

// AWSLambda returns the simulated AWS Lambda configuration, calibrated so
// that at concurrency 5000 the scaling time is ≳80% of total service time
// for a ~100 s function (paper Fig. 1) and the 10 GB GB·second price matches
// Lambda's published $1.6667e-5.
func AWSLambda() Config {
	return Config{
		Name:            "AWS Lambda",
		Shape:           lambdaShape(),
		SchedBaseSec:    0.1,
		SchedPerBusySec: 48e-6,
		SchedServers:    1,
		BuildSec:        2.0,
		BuildGrowthSec:  2.5e-3,
		BuildServers:    64,
		ShipSec:         0.06,
		ShipGrowthSec:   40e-6,
		ShipServers:     1,
		BootSec:         0.125,
		WarmStartSec:    0.050,
		GBSecondUSD:     1.6667e-5,
		PerRequestUSD:   2.0e-7,
		Storage: storage.Pricing{
			PutRequestUSD: 5e-6,
			GetRequestUSD: 4e-7,
			// AWS does not charge an S3→Lambda networking fee (paper Fig. 21).
			EgressPerGBUSD: 0,
		},
		StorageGBps: 0.080,
		JitterRel:   0.015,
		MaxExecSec:  900,
	}
}

// GoogleCloudFunctions returns the simulated Google configuration: a slower
// placement search and image pipeline than Lambda, plus a per-GB networking
// fee on function↔storage traffic.
func GoogleCloudFunctions() Config {
	c := AWSLambda()
	c.Name = "Google Cloud Functions"
	c.Shape.IsolationFactor = 1.03 // gVisor-class isolation, slightly softer
	c.SchedBaseSec = 0.12
	c.SchedPerBusySec = 55e-6
	c.BuildSec = 2.6
	c.BuildServers = 48
	c.ShipSec = 0.07
	c.BootSec = 0.4
	c.GBSecondUSD = 1.65e-5
	c.PerRequestUSD = 4.0e-7
	c.Storage.EgressPerGBUSD = 0.12
	c.MaxExecSec = 540
	return c
}

// AzureFunctions returns the simulated Microsoft Azure configuration,
// between AWS and Google on scaling behaviour, also with a networking fee.
func AzureFunctions() Config {
	c := AWSLambda()
	c.Name = "Azure Functions"
	c.Shape.IsolationFactor = 1.05
	c.SchedBaseSec = 0.11
	c.SchedPerBusySec = 50e-6
	c.BuildSec = 2.4
	c.BuildServers = 48
	c.ShipSec = 0.065
	c.BootSec = 0.5
	c.GBSecondUSD = 1.6e-5
	c.PerRequestUSD = 2.0e-7
	c.Storage.EgressPerGBUSD = 0.087
	c.MaxExecSec = 600
	return c
}

// Providers returns the three commercial platforms in the paper's order.
func Providers() []Config {
	return []Config{AWSLambda(), GoogleCloudFunctions(), AzureFunctions()}
}
