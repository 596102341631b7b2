package propack

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func TestFacadeRunMixed(t *testing.T) {
	cfg := AWSLambda()
	apps := []MixedApp{
		{Workload: SmithWatermanWorkload(), Count: 400},
		{Workload: StatelessCostWorkload(), Count: 400},
	}
	run, err := RunMixed(cfg, apps, Balanced(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.Plan.Strategy == "" || run.Plan.Instances() < 1 {
		t.Fatalf("degenerate plan %+v", run.Plan)
	}
	if run.Metrics.ExpenseUSD <= 0 || run.Metrics.TotalService <= 0 {
		t.Fatalf("degenerate metrics %+v", run.Metrics)
	}
}

func TestFacadeRunPipeline(t *testing.T) {
	cfg := AWSLambda()
	stages := []Stage{
		{Name: "only", Demand: XapianWorkload().Demand(), Count: 500},
	}
	res, err := RunPipeline(cfg, stages, Balanced(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 1 || res.Degrees[0] < 1 {
		t.Fatalf("bad pipeline result: %+v", res)
	}
	if res.TotalServiceSec != res.Stages[0].TotalService {
		t.Fatal("single-stage makespan should equal the stage's service time")
	}
}

func TestFacadeRegistry(t *testing.T) {
	reg, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := AWSLambda()
	app := XapianWorkload()
	rec, err := Advise(cfg, app.Demand(), 1000, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Save(cfg.Name, app.Name(), rec.Models, rec.Overhead.TotalUSD()); err != nil {
		t.Fatal(err)
	}
	loaded, err := reg.Load(cfg.Name, app.Name())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ET != rec.Models.ET {
		t.Fatal("registry round trip lost the ET model")
	}
	if _, err := reg.Load(cfg.Name, "nope"); !errors.Is(err, core.ErrNotCached) {
		t.Fatalf("expected ErrNotCached, got %v", err)
	}
}

func TestFacadeParetoAndStability(t *testing.T) {
	cfg := AWSLambda()
	rec, err := Advise(cfg, VideoWorkload().Demand(), 3000, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	frontier, err := rec.Models.ParetoFrontier(3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	lo, hi, err := NewPlanner(rec.Models).DegreeRange(3000, Balanced())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Plan.Degree < lo || rec.Plan.Degree > hi {
		t.Fatalf("plan degree %d outside its own stability band [%d, %d]", rec.Plan.Degree, lo, hi)
	}
}
