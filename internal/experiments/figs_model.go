package experiments

import (
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// buildModels runs ProPack's modeling pipeline for one application on one
// platform (shared by several drivers).
func buildModels(cfg Config, p platform.Config, w workload.Workload) (core.Models, []core.ETSample, []core.ScalingSample, core.Overhead, error) {
	meas := &core.SimMeasurer{Config: p, Demand: w.Demand(), Seed: cfg.Seed}
	opts := core.ProfileOptionsFor(p, w.Demand())
	if cfg.Quick {
		opts.ScalingProbes = []int{50, 100, 200, 400, 700, 1000}
	}
	return core.BuildModels(meas, opts)
}

// Fig4 reproduces the interference figure: measured execution time at the
// sampled packing degrees next to Eq. 1's fit, per application.
func Fig4(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Fig 4: execution time vs packing degree — observed and Eq. 1 model",
		Header: []string{"app", "degree", "observed", "model", "error"},
	}
	p := platform.AWSLambda()
	apps := workload.Motivation()
	return tabulate(t, len(apps), func(i int) ([][]string, error) {
		w := apps[i]
		models, samples, _, _, err := buildModels(cfg, p, w)
		if err != nil {
			return nil, err
		}
		var out [][]string
		for _, s := range samples {
			pred := models.ET.At(s.Degree)
			out = append(out, []string{w.Name(), itoa(s.Degree), sec(s.ETSec), sec(pred),
				pct(100 * (pred - s.ETSec) / s.ETSec)})
		}
		return out, nil
	})
}

// Validation reproduces Sec. 2.4: the Pearson χ² goodness-of-fit of the
// modeled service time and expense against observed runs across packing
// degrees, at 99.5% confidence with 14 degrees of freedom. The paper's
// statistics: ≤3.81 for service time, ≤0.055 for expense, both under the
// 4.075 critical value.
func Validation(cfg Config) (*trace.Table, error) {
	t := &trace.Table{
		Title:  "Sec 2.4: Pearson χ² goodness-of-fit (critical value 4.075 at 99.5%, df=14)",
		Header: []string{"platform", "app", "concurrency", "quantity", "χ²", "critical", "verdict"},
	}
	c := cfg.midConcurrency()
	providers := platform.Providers()
	if cfg.Quick {
		providers = providers[:1] // AWS only on the quick grid
	}
	apps := workload.Motivation()
	return tabulate(t, len(providers)*len(apps), func(i int) ([][]string, error) {
		p, w := providers[i/len(apps)], apps[i%len(apps)]
		models, _, _, _, err := buildModels(cfg, p, w)
		if err != nil {
			return nil, err
		}
		var obs []core.Observation
		for _, deg := range core.SampleDegrees(models.MaxDegree) {
			res, err := platform.Run(p, platform.Burst{
				Demand: w.Demand(), Functions: c, Degree: deg, Seed: cfg.Seed + 101,
			})
			if err != nil {
				break
			}
			obs = append(obs, core.Observation{
				Degree:     deg,
				ServiceSec: res.TotalServiceTime(),
				ExpenseUSD: res.ExpenseUSD(),
			})
		}
		sv, ev, err := models.ValidateModels(c, obs, core.PaperValidationDF)
		if err != nil {
			return nil, err
		}
		var out [][]string
		for _, v := range []core.Validation{sv, ev} {
			verdict := "ACCEPT"
			if !v.Accepted {
				verdict = "REJECT"
			}
			out = append(out, []string{p.Name, w.Name(), itoa(c), v.Quantity, f3(v.Stat), f3(v.Critical), verdict})
		}
		return out, nil
	})
}
