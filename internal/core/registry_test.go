package core

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

func tempRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryRoundTrip(t *testing.T) {
	r := tempRegistry(t)
	m := synthModels()
	if err := r.Save("AWS Lambda", "Video", m, 1.23); err != nil {
		t.Fatal(err)
	}
	got, err := r.Load("AWS Lambda", "Video")
	if err != nil {
		t.Fatal(err)
	}
	if got.ET != m.ET || got.Scaling != m.Scaling ||
		got.RatePerInstanceSec != m.RatePerInstanceSec || got.MaxDegree != m.MaxDegree {
		t.Fatalf("round trip mismatch:\nsaved  %+v\nloaded %+v", m, got)
	}
}

func TestRegistryMiss(t *testing.T) {
	r := tempRegistry(t)
	_, err := r.Load("AWS Lambda", "Video")
	if !errors.Is(err, ErrNotCached) {
		t.Fatalf("expected ErrNotCached, got %v", err)
	}
}

// TestRegistryList: the registry holds exactly the keys saved into it, one
// entry each, and answers each from its own entry.
func TestRegistryList(t *testing.T) {
	r := tempRegistry(t)
	keys := [][2]string{{"Azure", "Sort"}, {"AWS Lambda", "Video"}, {"AWS Lambda", "Sort"}}
	for i, key := range keys {
		m := synthModels()
		m.MaxDegree += i
		if err := r.Save(key[0], key[1], m, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, key := range keys {
		got, err := r.Load(key[0], key[1])
		if err != nil || got.MaxDegree != synthModels().MaxDegree+i {
			t.Fatalf("%v: loaded MaxDegree %d (%v), want %d", key, got.MaxDegree, err, synthModels().MaxDegree+i)
		}
	}
	if _, err := r.Load("Azure", "Video"); err == nil {
		t.Fatal("an unsaved key loaded")
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("registry holds %d entries for %d saved keys", len(entries), len(keys))
	}
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(""); err == nil {
		t.Fatal("empty dir accepted")
	}
	r := tempRegistry(t)
	if err := r.Save("", "Video", synthModels(), 0); err == nil {
		t.Fatal("empty platform accepted")
	}
	if err := r.Save("AWS", "Video", Models{}, 0); err == nil {
		t.Fatal("invalid models accepted")
	}
}

func TestRegistryCorruptEntry(t *testing.T) {
	r := tempRegistry(t)
	if err := r.Save("AWS", "Video", synthModels(), 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.path("AWS", "Video"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("AWS", "Video"); err == nil {
		t.Fatal("corrupt entry accepted")
	}
}

// TestRegistrySlugCollisionSafety: names that slug to one file are still
// distinct keys. A load under the other names is a miss that wraps
// ErrNotCached — never another platform's models — and LoadOrBuild rebuilds.
func TestRegistrySlugCollisionSafety(t *testing.T) {
	r := tempRegistry(t)
	if err := r.Save("AWS Lambda", "Video", synthModels(), 0); err != nil {
		t.Fatal(err)
	}
	if r.path("AWS Lambda", "Video") != r.path("aws_lambda", "VIDEO") {
		t.Fatal("fixture moved: the two keys no longer share a file")
	}
	if m, err := r.Load("aws_lambda", "VIDEO"); !errors.Is(err, ErrNotCached) {
		t.Fatalf("Load under colliding names = %+v (%v), want ErrNotCached", m, err)
	}
	fm := &fakeMeasurer{
		et: ETModel{MfuncGB: 0.25, Alpha: 0.15, Intercept: 4},
		sc: ScalingModel{B1: 2e-5, B2: 0.01},
	}
	opts := ProfileOptions{MaxDegree: 15, MfuncGB: 0.25, RatePerInstanceSec: 1e-4}
	if _, hit, err := r.LoadOrBuild("aws_lambda", "VIDEO", fm, opts); err != nil || hit {
		t.Fatalf("LoadOrBuild under colliding names: hit %v (%v), want a rebuild", hit, err)
	}
	if _, err := r.Load("aws_lambda", "VIDEO"); err != nil {
		t.Fatalf("the rebuilt entry does not load: %v", err)
	}
	// The two keys share one file, so the rebuild evicted the original
	// entry: a load under the original names is now the miss.
	if m, err := r.Load("AWS Lambda", "Video"); !errors.Is(err, ErrNotCached) {
		t.Fatalf("Load under the evicted names = %+v (%v), want ErrNotCached", m, err)
	}
}

func TestLoadOrBuild(t *testing.T) {
	r := tempRegistry(t)
	fm := &fakeMeasurer{
		et: ETModel{MfuncGB: 0.25, Alpha: 0.15, Intercept: 4},
		sc: ScalingModel{B1: 2e-5, B2: 0.01},
	}
	opts := ProfileOptions{MaxDegree: 15, MfuncGB: 0.25, RatePerInstanceSec: 1e-4}
	m1, hit, err := r.LoadOrBuild("AWS", "Video", fm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first call should be a miss")
	}
	callsAfterBuild := fm.execCalls
	m2, hit, err := r.LoadOrBuild("AWS", "Video", fm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second call should be a hit")
	}
	if fm.execCalls != callsAfterBuild {
		t.Fatal("cache hit should not probe")
	}
	if m1.ET != m2.ET {
		t.Fatal("cached models differ")
	}
}

// TestLoadOrBuildOversizedEntry: an entry that packs deeper than the memory
// bound LoadOrBuild would profile under is an error, not models a planner
// then sizes its tables by (2⁴⁰ degrees is an out-of-memory crash no recover
// catches).
func TestLoadOrBuildOversizedEntry(t *testing.T) {
	r := tempRegistry(t)
	m := synthModels()
	m.MaxDegree = 1 << 40
	if err := r.Save("AWS", "Video", m, 0); err != nil {
		t.Fatal(err)
	}
	opts := ProfileOptions{MaxDegree: 40, MfuncGB: 0.25, RatePerInstanceSec: 1e-4}
	if got, hit, err := r.LoadOrBuild("AWS", "Video", failingMeasurer, opts); err == nil {
		t.Fatalf("LoadOrBuild returned MaxDegree %d (hit %v) for an entry past opts.MaxDegree %d", got.MaxDegree, hit, opts.MaxDegree)
	}
}

// failingMeasurer fails every probe, so a LoadOrBuild that misses returns at
// once.
var failingMeasurer = measurerFunc{
	exec:  func(int) (float64, error) { return 0, errors.New("no probes here") },
	scale: func(int) (float64, error) { return 0, errors.New("no probes here") },
}

// FuzzRegistryLoad: whatever bytes a registry file holds, neither Load nor
// LoadOrBuild panics; models Load returns pass Validate, and models
// LoadOrBuild returns also pack no deeper than opts.MaxDegree.
func FuzzRegistryLoad(f *testing.F) {
	entry := func(mutate func(*registryEntry)) []byte {
		e := registryEntry{Platform: "AWS", App: "Video", Models: synthModels()}
		if mutate != nil {
			mutate(&e)
		}
		data, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(entry(nil))
	f.Add(entry(nil)[:60]) // truncated
	f.Add(entry(func(e *registryEntry) { e.Platform = "Azure" }))
	f.Add(entry(func(e *registryEntry) { e.Models.MaxDegree = 1 << 40 }))
	f.Add(entry(func(e *registryEntry) { e.Models.RatePerInstanceSec = -1 }))
	opts := ProfileOptions{MaxDegree: 40, MfuncGB: 0.25, RatePerInstanceSec: 1e-4}
	r, err := NewRegistry(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(r.path("AWS", "Video"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := r.Load("AWS", "Video"); err == nil {
			if err := m.Validate(); err != nil {
				t.Fatalf("Load returned invalid models: %v", err)
			}
		}
		m, _, err := r.LoadOrBuild("AWS", "Video", failingMeasurer, opts)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("LoadOrBuild returned invalid models: %v", err)
		}
		if m.MaxDegree > opts.MaxDegree {
			t.Fatalf("LoadOrBuild returned MaxDegree %d past opts.MaxDegree %d", m.MaxDegree, opts.MaxDegree)
		}
	})
}
