package core

import (
	"errors"
	"os"
	"path/filepath"
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

func TestRegistrySlugCollisionSafety(t *testing.T) {
	r := tempRegistry(t)
	// Distinct names that slug to distinct files.
	if err := r.Save("AWS Lambda", "Stateless Cost", synthModels(), 0); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(t.TempDir(), "*"))
	if err != nil {
		t.Fatal(err)
	}
	_ = entries
	if _, err := r.Load("AWS Lambda", "Stateless Cost"); err != nil {
		t.Fatal(err)
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
