// Event-level observability: watch a packed burst move through the
// control plane.
//
// Every instance's lifecycle (queued → sched → build → ship → boot → exec)
// and every fault (start retries, crashes, stragglers, hedge launches) is
// emitted as a typed record through an obs.Recorder. This example fans one
// faulty burst into the whole recorder stack at once:
//
//  1. obs.Memory collects the records in process, then renders a per-stage
//     summary table and a Chrome trace-event JSON you can open in Perfetto
//     (https://ui.perfetto.dev) to see the burst as a flame chart;
//  2. obs.JSONL streams the same records as JSON lines for jq/pandas;
//  3. obs.RegistryRecorder folds them into counters and latency histograms.
//
// The same stack hangs off `propack run -trace -events -stages` on the
// CLI; nil recorders cost the simulator nothing.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/workload"
)

func main() {
	cfg := platform.AWSLambda()
	cfg.CrashRate = 0.0005
	cfg.StartFailureProb = 0.05
	cfg.StragglerProb = 0.05
	cfg.StragglerFactor = 4
	cfg.Retry = resilience.Backoff{Kind: resilience.Exponential, BaseSec: 2, CapSec: 30}
	cfg.Hedge = resilience.Hedge{Quantile: 90}

	mem := &obs.Memory{}
	reg := obs.NewRegistry()

	events, err := os.Create("events.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	defer events.Close()
	jsonl := obs.NewJSONL(events)

	app := workload.Video{}
	res, err := platform.Run(cfg, platform.Burst{
		Demand:    app.Demand(),
		Functions: 500,
		Degree:    5,
		Seed:      11,
		Recorder:  obs.Multi(mem, jsonl, &obs.RegistryRecorder{Reg: reg}),
		Label:     app.Name(),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== %s on %s: %d functions at degree 5, faults injected ===\n\n",
		app.Name(), cfg.Name, 500)
	fmt.Printf("service %.1fs, expense $%.2f, %d retries, %d crashes, %d hedges\n\n",
		res.TotalServiceTime(), res.ExpenseUSD(), res.StartRetries, res.Crashes, res.HedgesLaunched)

	fmt.Println("--- per-stage span summary (obs.Memory) ---")
	if err := obs.FprintStageSummary(os.Stdout, mem.Bursts()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- metrics registry (obs.RegistryRecorder, Prometheus text) ---")
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		log.Fatal(err)
	}

	trace, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer trace.Close()
	if err := obs.WriteChromeTrace(trace, mem.Bursts()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote events.jsonl (one record per line) and trace.json —")
	fmt.Println("open trace.json at https://ui.perfetto.dev to see the burst as a flame chart")
}
