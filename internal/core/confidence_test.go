package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestConfidenceForRealSamples(t *testing.T) {
	cfg := platform.AWSLambda()
	w := workload.Video{}
	meas := &SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: 13}
	models, etS, scS, _, err := BuildModels(meas, ProfileOptionsFor(cfg, w.Demand()))
	if err != nil {
		t.Fatal(err)
	}
	conf, err := ConfidenceFor(etS, models.ET.MfuncGB, scS, ConfidenceOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every interval must contain its own point estimate.
	contains := func(ci stats.CI, v float64) bool { return v >= ci.Lo && v <= ci.Hi }
	if !contains(conf.Alpha, models.ET.Alpha) {
		t.Fatalf("α %g outside its CI %v", models.ET.Alpha, conf.Alpha)
	}
	if !contains(conf.Intercept, models.ET.Intercept) {
		t.Fatalf("intercept %g outside %v", models.ET.Intercept, conf.Intercept)
	}
	if !contains(conf.B1, models.Scaling.B1) {
		t.Fatalf("β1 %g outside %v", models.Scaling.B1, conf.B1)
	}
	if !contains(conf.B2, models.Scaling.B2) {
		t.Fatalf("β2 %g outside %v", models.Scaling.B2, conf.B2)
	}
	if !contains(conf.B3, models.Scaling.B3) {
		t.Fatalf("β3 %g outside %v", models.Scaling.B3, conf.B3)
	}
	// α is well pinned by 20 samples × 3 trials of 1.5% jitter: the
	// interval should be a small fraction of the estimate.
	if width := conf.Alpha.Hi - conf.Alpha.Lo; width > 0.2*models.ET.Alpha {
		t.Fatalf("α interval suspiciously wide: %v vs %g", conf.Alpha, models.ET.Alpha)
	}
}

func TestConfidenceForValidation(t *testing.T) {
	good := []ETSample{{1, 10}, {3, 12}, {5, 15}}
	sc := []ScalingSample{{100, 5}, {500, 30}, {1000, 80}, {2000, 220}}
	if _, err := ConfidenceFor(good, 0, sc, ConfidenceOptions{}); err == nil {
		t.Fatal("zero Mfunc accepted")
	}
	if _, err := ConfidenceFor(good[:1], 0.5, sc, ConfidenceOptions{}); err == nil {
		t.Fatal("single ET sample accepted")
	}
	if _, err := ConfidenceFor(good, 0.5, sc[:2], ConfidenceOptions{}); err == nil {
		t.Fatal("underdetermined scaling samples accepted")
	}
}
