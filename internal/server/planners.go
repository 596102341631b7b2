package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/funcx"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// plannerPool owns one fitted model stack + cached core.Planner per
// (platform, application, memory-size grid) triple; the empty grid is the
// platform's full-size instance, planned over packing degree alone. Model
// building runs the full probing pipeline (tens of milliseconds of
// simulation, once per memory size), so concurrent first requests for the
// same triple coalesce on the pool's singleflight; planning against a built
// entry is the planner's lock-free cached-table hot path from PR 4–5.
//
// Degree-only and default-grid entries are a fixed set and stay for the
// life of the pool; grids a caller spelled out are an open one, so only the
// newest maxCallerGrids of them are kept (callerGrids, oldest first). An
// evicted grid rebuilds on its next request, to the same bytes.
type plannerPool struct {
	seed        int64
	flights     flightGroup
	mu          sync.Mutex
	entries     map[string]*plannerEntry
	callerGrids []string
	builds      atomic.Int64
}

// maxCallerGrids is how many caller-supplied memory grids the pool retains.
const maxCallerGrids = 64

// plannerEntry is one profiled (platform, app, sizes) triple.
type plannerEntry struct {
	planner      *core.Planner
	overhead     core.Overhead
	platformName string    // the config's display name, echoed in responses
	sizesMB      []float64 // the memory grid; nil for a degree-only entry
}

func newPlannerPool(seed int64) *plannerPool {
	return &plannerPool{seed: seed, entries: make(map[string]*plannerEntry)}
}

// PlatformByName maps a platform name — the API's platform parameter and
// the CLI's -platform flag — to its config.
func PlatformByName(name string) (platform.Config, error) {
	switch strings.ToLower(name) {
	case "aws", "lambda", "aws-lambda":
		return platform.AWSLambda(), nil
	case "google", "gcf":
		return platform.GoogleCloudFunctions(), nil
	case "azure":
		return platform.AzureFunctions(), nil
	case "funcx":
		return funcx.Config(), nil
	default:
		return platform.Config{}, fmt.Errorf("unknown platform %q (aws, google, azure, funcx)", name)
	}
}

// defaultGridSizes is the memory grid used when the caller does not pass
// sizes: quarter steps up to the platform's instance memory. Deterministic,
// so identical requests share one pool entry and the e2e goldens are
// stable.
func defaultGridSizes(instanceMemMB float64) []float64 {
	return []float64{instanceMemMB / 4, instanceMemMB / 2, 3 * instanceMemMB / 4, instanceMemMB}
}

// get returns the entry for (platformName, appName, sizesMB), building and
// caching it on first use. An empty sizesMB asks for the degree-only planner
// at the platform's instance size; otherwise the entry plans jointly over
// the grid. Unknown names and size-grid validation failures are apiErrors
// (400s) so they never count against the circuit breaker; only the modeling
// pipeline itself can produce a 500.
func (p *plannerPool) get(ctx context.Context, platformName, appName string, sizesMB []float64) (*plannerEntry, error) {
	key := platformName + "|" + appName
	if len(sizesMB) > 0 {
		key = fmt.Sprintf("joint|%s|%v", key, sizesMB)
	}
	p.mu.Lock()
	e := p.entries[key]
	p.mu.Unlock()
	if e != nil {
		return e, nil
	}
	v, err, _ := p.flights.Do(ctx, key, func() (any, error) {
		// Double-check under the flight: a previous leader may have
		// finished between our map read and the flight acquisition.
		p.mu.Lock()
		if e := p.entries[key]; e != nil {
			p.mu.Unlock()
			return e, nil
		}
		p.mu.Unlock()
		w, err := workload.ByName(appName)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		cfg, err := PlatformByName(platformName)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		e := &plannerEntry{platformName: cfg.Name, sizesMB: sizesMB}
		if len(sizesMB) == 0 {
			meas := &core.SimMeasurer{Config: cfg, Demand: w.Demand(), Seed: p.seed}
			models, _, _, overhead, err := core.BuildModels(meas, core.ProfileOptionsFor(cfg, w.Demand()))
			if err != nil {
				return nil, fmt.Errorf("model build for %s on %s: %w", appName, platformName, err)
			}
			e.planner, e.overhead = core.NewPlanner(models), overhead
		} else {
			probes, err := core.GridProbesFor(cfg, w.Demand(), sizesMB, p.seed)
			if err != nil {
				return nil, badRequest("%v", err)
			}
			grid, overhead, err := core.BuildGridModels(probes)
			if err == nil {
				e.planner, err = core.NewJointPlanner(grid)
			}
			if errors.Is(err, stats.ErrUnderdetermined) {
				// A size too small to pack the app twice gives Eq. 1 nothing
				// to fit: the caller's grid, not a planner fault.
				return nil, badRequest("%v", err)
			}
			if err != nil {
				return nil, fmt.Errorf("grid model build for %s on %s: %w", appName, platformName, err)
			}
			e.overhead = overhead
		}
		p.mu.Lock()
		p.entries[key] = e
		if len(sizesMB) > 0 && !slices.Equal(sizesMB, defaultGridSizes(cfg.Shape.MemoryMB)) {
			p.callerGrids = append(p.callerGrids, key)
			if len(p.callerGrids) > maxCallerGrids {
				delete(p.entries, p.callerGrids[0])
				p.callerGrids = p.callerGrids[1:]
			}
		}
		p.mu.Unlock()
		p.builds.Add(1)
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*plannerEntry), nil
}

// size reports the number of profiled triples, for the models gauge.
func (p *plannerPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
