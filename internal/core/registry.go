package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Registry persists fitted models so their probing cost amortizes across
// runs, the way the paper argues it should ("this model needs to be
// developed only once and can be used across all applications on a given
// platform … in practice, this overhead will be much lower due to
// amortization over thousands of applications and runs", Sec. 2.2).
//
// Layout: one JSON file per (platform, application) pair under the
// registry directory. The scaling model inside is per-platform; callers
// that only need Eq. 2 can load any entry of that platform.
type Registry struct {
	dir string
	mu  sync.Mutex
}

// ErrNotCached is returned by Load when no models are stored for the key.
var ErrNotCached = errors.New("core: no cached models")

// NewRegistry opens (creating if needed) a model registry rooted at dir.
func NewRegistry(dir string) (*Registry, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty registry directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating registry: %w", err)
	}
	return &Registry{dir: dir}, nil
}

// registryEntry is the on-disk schema.
type registryEntry struct {
	Platform string  `json:"platform"`
	App      string  `json:"app"`
	Models   Models  `json:"models"`
	ProbeUSD float64 `json:"probe_usd"` // what building these models cost
}

// slug turns free-form names into a stable filename component.
func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

func (r *Registry) path(platformName, app string) string {
	return filepath.Join(r.dir, slug(platformName)+"__"+slug(app)+".json")
}

// Save stores the models for a (platform, application) pair, overwriting
// any previous entry. The write is atomic (temp file + rename).
func (r *Registry) Save(platformName, app string, m Models, probeUSD float64) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if platformName == "" || app == "" {
		return fmt.Errorf("core: registry key needs platform and app names")
	}
	data, err := json.MarshalIndent(registryEntry{
		Platform: platformName, App: app, Models: m, ProbeUSD: probeUSD,
	}, "", "  ")
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tmp := r.path(platformName, app) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, r.path(platformName, app))
}

// Load retrieves the cached models for a (platform, application) pair.
// Names that slug alike ("AWS Lambda", "aws_lambda") share a file, so an
// entry recorded under other names is a miss, not a hit: the error wraps
// ErrNotCached and LoadOrBuild rebuilds. The rebuilt entry overwrites the
// file, so colliding keys evict each other: callers that alternate between
// two such spellings re-probe on every call.
func (r *Registry) Load(platformName, app string) (Models, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := os.ReadFile(r.path(platformName, app))
	if errors.Is(err, fs.ErrNotExist) {
		return Models{}, fmt.Errorf("%w for %s on %s", ErrNotCached, app, platformName)
	}
	if err != nil {
		return Models{}, err
	}
	var e registryEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return Models{}, fmt.Errorf("core: corrupt registry entry %s: %w", r.path(platformName, app), err)
	}
	if e.Platform != platformName || e.App != app {
		return Models{}, fmt.Errorf("%w for %s on %s (the entry holds %s on %s)", ErrNotCached, app, platformName, e.App, e.Platform)
	}
	if err := e.Models.Validate(); err != nil {
		return Models{}, fmt.Errorf("core: invalid cached models: %w", err)
	}
	return e.Models, nil
}

// LoadOrBuild returns cached models if present, otherwise builds them with
// the measurer, saves, and returns them. The boolean reports a cache hit.
// Cached models that pack deeper than opts.MaxDegree, the memory bound they
// would be profiled under (a latency cap only lowers it), are an error: the
// file is not to be trusted, and a planner sized by it would not fit in
// memory.
func (r *Registry) LoadOrBuild(platformName, app string, meas Measurer, opts ProfileOptions) (Models, bool, error) {
	if m, err := r.Load(platformName, app); err == nil {
		if m.MaxDegree > opts.MaxDegree {
			return Models{}, false, fmt.Errorf("core: cached models for %s on %s pack up to degree %d, past the %d they are profiled under",
				app, platformName, m.MaxDegree, opts.MaxDegree)
		}
		return m, true, nil
	} else if !errors.Is(err, ErrNotCached) {
		return Models{}, false, err
	}
	m, _, _, ov, err := BuildModels(meas, opts)
	if err != nil {
		return Models{}, false, err
	}
	if err := r.Save(platformName, app, m, ov.TotalUSD()); err != nil {
		return Models{}, false, err
	}
	return m, false, nil
}
