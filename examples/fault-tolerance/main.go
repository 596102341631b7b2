// Fault-tolerant execution: what ProPack's packing trade looks like on a
// platform that actually fails.
//
// Deep packing concentrates work: a crashed instance at degree P loses (and
// re-bills) P functions' progress, so the failure-blind recommendation
// overshoots once mid-execution crashes are real. This example
//
//  1. plans the Video workload both ways — failure-blind Advise vs
//     reliability-aware AdviseReliable — under a crash rate λ;
//
//  2. executes both plans on the simulator with the same crash injection,
//     exponential-backoff retries, and p90 straggler hedging, and compares
//     expense, service time, and the fault counters;
//
//  3. shows the same resilience machinery on the local runtime: kernels that
//     panic are retried per instance, and a context deadline aborts the job
//     promptly with partial results.
//
//     go run ./examples/fault-tolerance
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	propack "repro"
	"repro/internal/localfaas"
	"repro/internal/workload"
)

func main() {
	cfg := propack.AWSLambda()
	app := propack.VideoWorkload()
	const c = 2000
	fm := propack.FailureModel{CrashRate: 0.005, RetryDelaySec: 5}

	fmt.Printf("=== Planning %s at C=%d under crashes (λ=%g per instance-sec) ===\n\n",
		app.Name(), c, fm.CrashRate)
	blind, err := propack.Advise(cfg, app.Demand(), c, propack.ExpenseOnly())
	if err != nil {
		log.Fatal(err)
	}
	reliable, err := propack.AdviseReliable(cfg, app.Demand(), c, propack.ExpenseOnly(), fm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-blind degree   : %d\n", blind.Plan.Degree)
	fmt.Printf("reliability-aware      : %d (crashes at degree P lose P functions' work)\n\n",
		reliable.Plan.Degree)

	// Execute both plans under the same injection: crashes, exponential
	// backoff with a generous budget, and speculative hedging past p90.
	run := cfg
	run.CrashRate = fm.CrashRate
	run.Retry = propack.Backoff{
		Kind: propack.BackoffExponential, BaseSec: 2, CapSec: 60, MaxAttempts: 200,
	}
	run.StragglerProb = 0.05
	run.StragglerFactor = 3
	run.Hedge = propack.Hedge{Quantile: 90}

	fmt.Printf("=== Simulated execution with crash + straggler injection ===\n\n")
	for _, plan := range []struct {
		name   string
		degree int
	}{
		{"failure-blind", blind.Plan.Degree},
		{"reliability-aware", reliable.Plan.Degree},
	} {
		m, err := propack.Run(run, app.Demand(), c, plan.degree, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s degree %2d: $%.2f, service %.0fs\n",
			plan.name, plan.degree, m.ExpenseUSD, m.TotalService)
		fmt.Printf("%18s crashes %d, retries %d, hedges %d launched / %d won, $%.2f wasted\n",
			"", m.Crashes, m.Retries, m.HedgesLaunched, m.HedgesWon, m.WastedUSD)
	}

	// The same policies protect real kernels on the local runtime.
	fmt.Printf("\n=== Local runtime: panicking kernels and deadlines ===\n\n")
	res, err := localfaas.Run(localfaas.Job{
		Workload:         panicky{workload.StatelessCost{Images: 1, SrcSize: 48}},
		Functions:        8,
		Degree:           2,
		CoresPerInstance: 2,
		Seed:             1,
		Retry:            propack.Backoff{Kind: propack.BackoffFixed, BaseSec: 0.01, MaxAttempts: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	retries := 0
	for _, r := range res.Instances {
		retries += r.Retries
	}
	fmt.Printf("survived injected kernel panics: %d instances completed, %d retries\n",
		len(res.Instances), retries)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err = localfaas.RunContext(ctx, localfaas.Job{
		Workload:         slow{},
		Functions:        4,
		Degree:           1,
		CoresPerInstance: 1,
		Seed:             1,
	})
	fmt.Printf("deadline abort after %v: %v\n", time.Since(begin).Round(time.Millisecond), err)
}

// panicky wraps a real kernel and panics on each function's first attempt.
type panicky struct{ inner workload.Workload }

var (
	attemptsMu sync.Mutex
	attempts   = map[int64]int{}
)

func (p panicky) Name() string           { return p.inner.Name() }
func (p panicky) Demand() propack.Demand { return p.inner.Demand() }
func (p panicky) NewTask(seed int64) workload.Task {
	return panickyTask{p.inner.NewTask(seed), seed}
}

type panickyTask struct {
	inner workload.Task
	seed  int64
}

func (t panickyTask) Run() (uint64, error) {
	attemptsMu.Lock()
	attempts[t.seed]++
	first := attempts[t.seed] == 1
	attemptsMu.Unlock()
	if first {
		panic("injected kernel panic")
	}
	return t.inner.Run()
}

// slow blocks long enough that only a deadline ends it.
type slow struct{}

func (slow) Name() string                { return "Slow" }
func (slow) Demand() (d propack.Demand)  { return }
func (slow) NewTask(int64) workload.Task { return slowTask{} }

type slowTask struct{}

func (slowTask) Run() (uint64, error) { time.Sleep(10 * time.Second); return 1, nil }
