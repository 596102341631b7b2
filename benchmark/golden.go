package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// Goldens cover every input the seed can select, not the inputs of one seed:
// the seed only orders and mixes a fixed universe (80 advise cells, 8 burst
// seeds, 4 figure seeds, 4 routes × 20 pairs × 264 concurrency levels), so a
// run is checked against checked-in values whatever seed the caller passes.
//
// Regenerate with `go run ./benchmark -update` (the repo's golden convention:
// an -update flag rewrites the files under testdata/).

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenPath is where -update writes, relative to the repo root.
const goldenPath = "benchmark/testdata/golden.json"

type adviseGolden struct {
	Degree      int    `json:"degree"`
	ServiceBits uint64 `json:"service_bits"`
	ExpenseBits uint64 `json:"expense_bits"`
}

type goldens struct {
	// Advise is keyed "platform|app|c".
	Advise map[string]adviseGolden `json:"advise"`
	// Burst is keyed "functions|seed": a digest of the simulated statistics.
	Burst map[string]string `json:"burst"`
	// Figures is keyed "seed|id": SHA-256 of the rendered table.
	Figures map[string]string `json:"figures"`
	// Serve is keyed "route|platform|app": SHA-256 over the response bodies of
	// the whole concurrency universe, in universe order.
	Serve map[string]string `json:"serve"`
	// ServeSmoke is Serve for the -smoke sizing's smaller universe.
	ServeSmoke map[string]string `json:"serve_smoke"`
}

func loadGoldens() (*goldens, error) {
	g := &goldens{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g *goldens) write(path string) error {
	buf, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
