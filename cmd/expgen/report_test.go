package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestReportIsGenerated holds the checked-in REPORT.md to what
// `go run ./cmd/expgen -report REPORT.md` writes at the default flags, byte
// for byte: a figure driver or model change that moves a table fails here
// until the report is regenerated with that command.
func TestReportIsGenerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "REPORT.md")
	if err := writeReport(path, experiments.All(), experiments.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("REPORT.md line %d is %q, expgen -report writes %q; regenerate with `go run ./cmd/expgen -report REPORT.md`",
				i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("REPORT.md has %d lines, expgen -report writes %d; regenerate with `go run ./cmd/expgen -report REPORT.md`",
		len(wantLines), len(gotLines))
}
