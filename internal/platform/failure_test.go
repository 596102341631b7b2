package platform

import (
	"errors"
	"math"
	"testing"

	"repro/internal/workload"
)

func failingConfig(p float64) Config {
	cfg := AWSLambda()
	cfg.StartFailureProb = p
	cfg.Retry.BaseSec = 5
	return cfg
}

func TestFailureInjectionRetriesLengthenTail(t *testing.T) {
	d := workload.Video{}.Demand()
	b := Burst{Demand: d, Functions: 500, Degree: 1, Seed: 21}
	clean, err := Run(AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(failingConfig(0.05), b)
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	for _, tl := range faulty.Timelines() {
		retries += tl.Retries
	}
	// With p=0.05 over 500 instances, ~25 retries expected.
	if retries < 5 || retries > 80 {
		t.Fatalf("implausible retry count %d for p=0.05, n=500", retries)
	}
	if faulty.ScalingTime() <= clean.ScalingTime() {
		t.Fatalf("failures should lengthen the scaling tail: %g vs %g",
			faulty.ScalingTime(), clean.ScalingTime())
	}
	// Every instance must still eventually run.
	for _, tl := range faulty.Timelines() {
		if tl.End <= tl.Start || tl.Start == 0 {
			t.Fatalf("instance %d never ran: %+v", tl.Index, tl)
		}
	}
}

func TestFailureInjectionExhaustedRetriesFailBurst(t *testing.T) {
	cfg := failingConfig(0.97)
	cfg.Retry.MaxAttempts = 1
	d := workload.Video{}.Demand()
	_, err := Run(cfg, Burst{Demand: d, Functions: 50, Degree: 1, Seed: 22})
	if !errors.Is(err, ErrStartFailed) {
		t.Fatalf("expected ErrStartFailed, got %v", err)
	}
}

func TestFailureInjectionZeroProbIsClean(t *testing.T) {
	d := workload.Video{}.Demand()
	b := Burst{Demand: d, Functions: 200, Degree: 2, Seed: 23}
	a, err := Run(AWSLambda(), b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := AWSLambda()
	cfg.Retry.BaseSec = 5 // irrelevant without failures
	c, err := Run(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TotalServiceTime()-c.TotalServiceTime()) > 1e-12 {
		t.Fatal("zero failure probability must not perturb the run")
	}
	for _, tl := range c.Timelines() {
		if tl.Retries != 0 {
			t.Fatal("retries recorded without failure injection")
		}
	}
}

func TestFailureConfigValidation(t *testing.T) {
	cfg := AWSLambda()
	cfg.StartFailureProb = 1.0
	if cfg.Validate() == nil {
		t.Fatal("p=1 accepted (would loop forever)")
	}
	cfg = AWSLambda()
	cfg.StartFailureProb = -0.1
	if cfg.Validate() == nil {
		t.Fatal("negative probability accepted")
	}
	cfg = AWSLambda()
	cfg.Retry.BaseSec = -1
	if cfg.Validate() == nil {
		t.Fatal("negative retry delay accepted")
	}
	cfg = AWSLambda()
	cfg.Retry.MaxAttempts = -1
	if cfg.Validate() == nil {
		t.Fatal("negative retry cap accepted")
	}
}

// TestFailureWithPodsAndWarm exercises the retry path's interaction with
// pods (retried members find their pod shipped) and warm instances.
func TestFailureWithPodsAndWarm(t *testing.T) {
	cfg := failingConfig(0.1)
	cfg.PodSize = 8
	d := workload.Video{}.Demand()
	res, err := Run(cfg, Burst{Demand: d, Functions: 128, Degree: 1, Warm: 16, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range res.Timelines() {
		if tl.End <= tl.Start {
			t.Fatalf("instance %d never completed: %+v", tl.Index, tl)
		}
	}
}
