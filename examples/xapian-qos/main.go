// Xapian under a QoS bound: the paper's latency-critical case study
// (Fig. 20). The search engine serves ranked queries with a strict bound on
// the 95th-percentile service time; ProPack's Sec. 2.6 weight search picks
// the smallest service-time weight that still meets the bound, preserving
// as much cost optimization as possible.
//
//	go run ./examples/xapian-qos
package main

import (
	"fmt"
	"log"

	propack "repro"
	"repro/internal/workload"
)

func main() {
	// The real kernel, once: build an index shard and serve queries.
	task := workload.Xapian{Docs: 1500, Queries: 32}.NewTask(5)
	if _, err := task.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("served 32 ranked tf-idf queries over a 1500-document shard ✓")

	cfg := propack.AWSLambda()
	app := propack.XapianWorkload()
	const concurrency = 5000

	// What do the unconstrained objectives look like?
	for _, row := range []struct {
		name string
		w    propack.Weights
	}{
		{"service-only", propack.ServiceOnly()},
		{"balanced", propack.Balanced()},
		{"expense-only", propack.ExpenseOnly()},
	} {
		rec, err := propack.Advise(cfg, app.Demand(), concurrency, row.w)
		if err != nil {
			log.Fatal(err)
		}
		m, err := propack.Run(cfg, app.Demand(), concurrency, rec.Plan.Degree, 9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s degree %2d  p95 %7.1fs  expense $%.2f\n",
			row.name, rec.Plan.Degree, m.TailService, m.ExpenseUSD)
	}

	// Now impose a p95 bound between the two extremes and let ProPack find
	// the weights (Eqs. 8–9).
	svcRec, err := propack.Advise(cfg, app.Demand(), concurrency, propack.ServiceOnly())
	if err != nil {
		log.Fatal(err)
	}
	expRec, err := propack.Advise(cfg, app.Demand(), concurrency, propack.ExpenseOnly())
	if err != nil {
		log.Fatal(err)
	}
	best := svcRec.Models.ServiceTimeQuantile(concurrency, svcRec.Plan.Degree, 95)
	worst := expRec.Models.ServiceTimeQuantile(concurrency, expRec.Plan.Degree, 95)
	bound := best + 0.3*(worst-best)

	rec, err := propack.AdviseRequest(cfg, app.Demand(),
		propack.Request{C: concurrency, Weights: propack.Balanced(), QoSSec: bound})
	if err != nil {
		log.Fatal(err)
	}
	weights := rec.Plan.Weights
	m, err := propack.Run(cfg, app.Demand(), concurrency, rec.Plan.Degree, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQoS bound p95 ≤ %.1fs → W_S=%.2f, W_E=%.2f, degree %d\n",
		bound, weights.Service, weights.Expense, rec.Plan.Degree)
	fmt.Printf("observed p95 %.1fs (bound met: %v), expense $%.2f\n",
		m.TailService, m.TailService <= bound*1.05, m.ExpenseUSD)
}
