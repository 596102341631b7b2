package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHeteroGolden pins `propack hetero`'s stdout, byte for byte, for the
// default job, a service-blind one, a duration-mismatched pair on another
// platform, and the default job's per-stage span summary. Regenerate with
//
//	go test ./cmd/propack -run TestHeteroGolden -update
//
// on an intended model or output change.
func TestHeteroGolden(t *testing.T) {
	bin := buildPropack(t)
	var got strings.Builder
	for _, args := range [][]string{
		nil,
		{"-ws", "0"},
		{"-b", "Stateless Cost", "-platform", "google", "-ca", "2000", "-cb", "700"},
		{"-stages"},
	} {
		out, err := exec.Command(bin, append([]string{"hetero"}, args...)...).Output()
		if err != nil {
			t.Fatalf("hetero %q: %v", args, err)
		}
		got.WriteString("$ propack hetero")
		for _, a := range args {
			if strings.Contains(a, " ") {
				a = `"` + a + `"`
			}
			got.WriteString(" " + a)
		}
		got.WriteString("\n")
		got.Write(out)
	}
	golden := filepath.Join("testdata", "hetero.golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("hetero drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
