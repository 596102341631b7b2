package main

import (
	"errors"
	"io/fs"
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

// TestTraceErrorFails: a -trace file an execution command cannot create
// fails the command. Each closes its sink on one deferred exit that reports
// the close error; hetero once dropped it and exited 0 having written nothing.
func TestTraceErrorFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "x.json")
	for _, args := range [][]string{{"run", "-c", "10"}, {"sweep", "-c", "10"},
		{"local", "-c", "2", "-degree", "2"}, {"hetero", "-ca", "10", "-cb", "10"}} {
		err := commandByName(args[0]).run(append(args[1:], "-trace", path))
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s -trace %s: error %v, want the file's not-exist error", args[0], path, err)
		}
	}
}
