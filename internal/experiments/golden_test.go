package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Golden files are regenerated with `go test ./internal/experiments -update`
// (the repo convention: every golden test watches this flag).
var update = flag.Bool("update", false, "rewrite golden files")

// fig12CSV renders Fig12 (quick grid, fixed seed) at GOMAXPROCS procs, the
// drivers' worker count, restoring the setting after.
func fig12CSV(t *testing.T, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	tab, err := Fig12(Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("Fig12 (GOMAXPROCS=%d): %v", procs, err)
	}
	var buf bytes.Buffer
	if err := tab.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFig12GoldenSeedStability pins the exact CSV bytes of Fig12 at seed 1:
// the figure drivers promise that a fixed seed reproduces a fixed table, so
// any drift here is either an intentional model change (regenerate with
// `go test ./internal/experiments -update`) or a lost determinism guarantee. The parallel renderings must
// match the same golden bytes — the sequential ≡ parallel contract applied
// to a whole figure pipeline.
func TestFig12GoldenSeedStability(t *testing.T) {
	seq := fig12CSV(t, 1)

	golden := filepath.Join("testdata", "fig12.golden.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, seq, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -update` to create it)", err)
	}
	if !bytes.Equal(seq, want) {
		t.Fatalf("Fig12 CSV drifted from golden (sequential run):\n got:\n%s\n want:\n%s", seq, want)
	}
	for _, procs := range []int{7, runtime.GOMAXPROCS(0)} {
		if got := fig12CSV(t, procs); !bytes.Equal(got, want) {
			t.Fatalf("Fig12 CSV at GOMAXPROCS=%d differs from golden:\n got:\n%s\n want:\n%s",
				procs, got, want)
		}
	}
}
