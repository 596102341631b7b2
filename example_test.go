package propack_test

import (
	"fmt"

	propack "repro"
)

// ExampleAdvise shows the minimal planning loop: profile an application on
// a platform and read off the recommended packing degree.
func ExampleAdvise() {
	cfg := propack.AWSLambda()
	app := propack.VideoWorkload()
	rec, err := propack.Advise(cfg, app.Demand(), 5000, propack.Balanced())
	if err != nil {
		panic(err)
	}
	fmt.Println("packing degree:", rec.Plan.Degree)
	fmt.Println("beats baseline on both objectives:",
		rec.Plan.PredictedServiceSec < rec.Plan.BaselineServiceSec &&
			rec.Plan.PredictedExpenseUSD < rec.Plan.BaselineExpenseUSD)
	// Output:
	// packing degree: 15
	// beats baseline on both objectives: true
}

// ExampleRunMixed plans and runs a heterogeneous job: two applications with
// matched solo durations spawn together, and the planner mixes them in
// shared instances.
func ExampleRunMixed() {
	cfg := propack.AWSLambda()
	apps := []propack.MixedApp{
		{Workload: propack.VideoWorkload(), Count: 1000},
		{Workload: propack.SmithWatermanWorkload(), Count: 1000},
	}
	run, err := propack.RunMixed(cfg, apps, propack.Balanced(), 7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s composition, %d instances\n", run.Plan.Strategy, run.Plan.Instances())
	fmt.Printf("total service %.1fs, expense $%.2f (+$%.2f modeling overhead)\n",
		run.Metrics.TotalService, run.Metrics.ExpenseUSD, run.Overhead.TotalUSD())
	// Output:
	// mixed composition, 200 instances
	// total service 195.0s, expense $5.60 (+$5.67 modeling overhead)
}
