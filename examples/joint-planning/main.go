// Joint degree × memory planning — ProPack's answer to AWS Lambda power
// tuning. Lambda couples CPU share to configured memory, so the instance
// size is a real knob: smaller instances are cheaper per second but pack
// fewer functions and interfere more. Tuning tools sweep the sizes by brute
// force; ProPack instead fits one model stack per size (the scaling probes
// run once — Eq. 2 is size-independent) and solves Eq. 7 over the whole
// (degree, memory) grid with one scan over every cell.
//
// This example
//
//  1. profiles Video on a four-point memory grid and prints the per-size
//     surface a power-tuning sweep would have measured;
//
//  2. asks for the joint optimum at several service/expense weights — the
//     chosen memory size moves with the objective;
//
//  3. plans under a p95 QoS bound (Eqs. 8–9 over the grid) and executes
//     the chosen (degree, memory) config against the tune-nothing
//     deployment (degree 1, largest size).
//
//     go run ./examples/joint-planning
package main

import (
	"fmt"
	"log"

	propack "repro"
)

func main() {
	cfg := propack.AWSLambda()
	app := propack.VideoWorkload()
	const concurrency = 5000
	sizes := []float64{2560, 5120, 7680, 10240}

	// 1. One modeling pipeline per size, one joint plan over all of them.
	rec, err := propack.AdviseRequest(cfg, app.Demand(),
		propack.Request{C: concurrency, Weights: propack.Balanced(), SizesMB: sizes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s, C=%d — per-size surface (balanced weights):\n",
		app.Name(), cfg.Name, concurrency)
	for _, s := range rec.Grid.Sizes {
		plan, err := s.Models.PlanFor(concurrency, propack.Balanced())
		if err != nil {
			log.Fatal(err)
		}
		marker := " "
		if s.MemMB == rec.Plan.MemMB {
			marker = "←"
		}
		fmt.Printf("  %6.0f MB: best degree %2d, predicted %6.1fs  $%5.2f  %s\n",
			s.MemMB, plan.Degree, plan.PredictedServiceSec, plan.PredictedExpenseUSD, marker)
	}
	fmt.Printf("joint optimum: degree %d at %.0f MB (modeling bill $%.4f)\n\n",
		rec.Plan.Degree, rec.Plan.MemMB, rec.Overhead.TotalUSD())

	// 2. The winning size follows the objective: pay mostly for expense and
	//    the planner drops to a smaller instance; pay for service time and
	//    the big instance's packing headroom wins.
	fmt.Println("weight sweep (W_S = weight on service time):")
	pl, err := propack.NewJointPlanner(rec.Grid)
	if err != nil {
		log.Fatal(err)
	}
	for _, ws := range []float64{0, 0.25, 0.5, 0.75, 1} {
		plan, err := pl.PlanJointFor(concurrency, propack.Weights{Service: ws, Expense: 1 - ws})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  W_S=%.2f → degree %2d at %6.0f MB  (%6.1fs, $%5.2f)\n",
			ws, plan.Degree, plan.MemMB, plan.PredictedServiceSec, plan.PredictedExpenseUSD)
	}

	// 3. QoS: the tightest plan that still meets a p95 bound, then run it.
	const qosSec = 300
	qosRec, err := propack.AdviseRequest(cfg, app.Demand(),
		propack.Request{C: concurrency, Weights: propack.Balanced(), QoSSec: qosSec, SizesMB: sizes})
	if err != nil {
		log.Fatal(err)
	}
	weights := qosRec.Plan.Weights
	fmt.Printf("\nQoS p95 ≤ %.0fs → W_S=%.2f, degree %d at %.0f MB\n",
		float64(qosSec), weights.Service, qosRec.Plan.Degree, qosRec.Plan.MemMB)

	sized, err := cfg.WithMemory(qosRec.Plan.MemMB)
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := propack.Run(sized, app.Demand(), concurrency, qosRec.Plan.Degree, 1)
	if err != nil {
		log.Fatal(err)
	}
	base, err := propack.Run(cfg, app.Demand(), concurrency, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-28s %10s %10s\n", "", "untuned", "joint plan")
	fmt.Printf("%-28s %9.1fs %9.1fs\n", "p95 service time", base.TailService, tuned.TailService)
	fmt.Printf("%-28s %9.1fs %9.1fs\n", "total service time", base.TotalService, tuned.TotalService)
	fmt.Printf("%-28s %9.2f$ %9.2f$\n", "expense", base.ExpenseUSD, tuned.ExpenseUSD)
}
