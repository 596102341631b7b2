package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/funcx"
	"repro/internal/orchestrator"
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

	// planMixed is orchestrator.PlanMixedJob; a test substitutes a wrapper
	// that holds the flight's leader.
	planMixed func(platform.Config, []orchestrator.MixedApp, core.Weights, int64) (orchestrator.MixedJob, error)
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
	return &plannerPool{seed: seed, entries: make(map[string]*plannerEntry), planMixed: orchestrator.PlanMixedJob}
}

// PlatformByName maps a platform name — the API's platform parameter and
// the CLI's -platform flag — to its config.
func PlatformByName(name string) (platform.Config, error) {
	switch platformKey(name) {
	case "aws":
		return platform.AWSLambda(), nil
	case "google":
		return platform.GoogleCloudFunctions(), nil
	case "azure":
		return platform.AzureFunctions(), nil
	case "funcx":
		return funcx.Config(), nil
	default:
		return platform.Config{}, fmt.Errorf("unknown platform %q (aws, google, azure, funcx)", name)
	}
}

// platformKey is the one spelling of every name PlatformByName resolves to a
// platform — its case and aliases folded — and an unknown name as it is.
func platformKey(name string) string {
	switch strings.ToLower(name) {
	case "aws", "lambda", "aws-lambda":
		return "aws"
	case "google", "gcf":
		return "google"
	case "azure":
		return "azure"
	case "funcx":
		return "funcx"
	default:
		return name
	}
}

// ParseMemSizes reads a memory grid in MB written as a comma-separated list —
// the API's sizes parameter and the CLI's -mem.grid flag. Each entry is
// trimmed of spaces and must be a finite number; an empty entry is refused.
// The grid's own rules (positive, strictly increasing) are core.Request's.
func ParseMemSizes(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	sizes := make([]float64, len(fields))
	for i, f := range fields {
		mb, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || math.IsNaN(mb) || math.IsInf(mb, 0) {
			return nil, fmt.Errorf("bad memory size %q (want comma-separated MB values)", f)
		}
		sizes[i] = mb
	}
	return sizes, nil
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
// (400s), so they never count against the SLO's availability; only the
// modeling pipeline itself can produce a 500.
func (p *plannerPool) get(ctx context.Context, platformName, appName string, sizesMB []float64) (*plannerEntry, error) {
	// Keyed by the platform, not the caller's spelling of it: the fixed set
	// holds one entry per platform and application.
	platformName = platformKey(platformName)
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
	// Unknown names are refused before the flight, so a build's key always
	// starts with a known platform or "joint|", never with mixed's "mixed|".
	w, err := workload.ByName(appName)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	cfg, err := PlatformByName(platformName)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	v, err := p.flights.Do(ctx, key, func() (any, error) {
		// Double-check under the flight: a previous leader may have
		// finished between our map read and the flight acquisition.
		p.mu.Lock()
		if e := p.entries[key]; e != nil {
			p.mu.Unlock()
			return e, nil
		}
		p.mu.Unlock()
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

// mixed plans a heterogeneous job under the pool's flight, keyed by the
// resolved job, so a herd of identical concurrent jobs plans once. Every
// caller encodes its own body from the shared MixedJob, which nobody writes
// to. Plans are not kept: a later identical job plans again.
func (p *plannerPool) mixed(ctx context.Context, cfg platform.Config, apps []orchestrator.MixedApp, w core.Weights) (orchestrator.MixedJob, error) {
	key := append([]byte("mixed|"), cfg.Name...)
	for _, a := range apps {
		key = append(key, '|')
		key = append(key, a.Workload.Name()...)
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(a.Count), 10)
	}
	key = append(key, '|')
	key = strconv.AppendFloat(key, w.Service, 'g', -1, 64)
	key = append(key, ',')
	key = strconv.AppendFloat(key, w.Expense, 'g', -1, 64)
	v, err := p.flights.Do(ctx, string(key), func() (any, error) {
		return p.planMixed(cfg, apps, w, p.seed)
	})
	if err != nil {
		return orchestrator.MixedJob{}, err
	}
	return v.(orchestrator.MixedJob), nil
}

// size reports the number of profiled triples, for the models gauge.
func (p *plannerPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
