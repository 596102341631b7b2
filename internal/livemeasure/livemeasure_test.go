package livemeasure

import (
	"testing"

	"repro/internal/workload"
)

// smallWorkload is a fast real kernel for test-time profiling.
func smallWorkload() workload.Workload {
	return workload.SmithWaterman{QueryLen: 96, Subjects: 24, SubjectLen: 128}
}

func TestProfileFitsRealMeasurements(t *testing.T) {
	model, samples, err := Profile(smallWorkload(), Options{
		Cores: 2, MaxDegree: 8, Trials: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 { // degrees 1,3,5,7
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	// Real CPU-bound work on a bounded core budget must slow down with
	// degree, and the fitted model must be increasing.
	if samples[len(samples)-1].ETSec <= samples[0].ETSec {
		t.Fatalf("no measured interference: %+v", samples)
	}
	if model.At(8) <= model.At(1) {
		t.Fatalf("fitted model not increasing: %v", model)
	}
	// The fit should track the measurements loosely (live timings are
	// noisy on shared CI machines; allow a wide band).
	for _, s := range samples {
		pred := model.At(s.Degree)
		if pred < 0.25*s.ETSec || pred > 4*s.ETSec {
			t.Fatalf("fit wildly off at degree %d: predicted %g, measured %g",
				s.Degree, pred, s.ETSec)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	w := smallWorkload()
	if _, _, err := Profile(nil, Options{Cores: 1, MaxDegree: 1}); err == nil {
		t.Fatal("nil workload accepted")
	}
	if _, _, err := Profile(w, Options{Cores: 0, MaxDegree: 1}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, _, err := Profile(w, Options{Cores: 1, MaxDegree: 0}); err == nil {
		t.Fatal("zero max degree accepted")
	}
	if _, _, err := Profile(w, Options{Cores: 1, MaxDegree: 1, Trials: -1}); err == nil {
		t.Fatal("negative trials accepted")
	}
}
