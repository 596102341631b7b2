// Command expgen regenerates the paper's tables and figures from the
// simulated platforms.
//
// Usage:
//
//	expgen -list
//	expgen -fig fig9
//	expgen -fig all -quick
//	expgen -fig fig11 -csv > fig11.csv
//
// Every experiment is deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "experiment id (e.g. fig9, validation, ablation) or 'all'")
		quick  = flag.Bool("quick", false, "use the reduced concurrency grid")
		seed   = flag.Int64("seed", 1, "simulation seed")
		csv    = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		out    = flag.String("o", "", "write each experiment to <dir>/<id>.txt (or .csv) instead of stdout")
		report = flag.String("report", "", "write a single markdown report with every experiment to this file")
		list   = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	var todo []experiments.Experiment
	if *fig == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	}

	if *report != "" {
		if err := writeReport(*report, todo, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "expgen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *report)
		return
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "expgen:", err)
			os.Exit(1)
		}
	}
	for i, e := range todo {
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expgen: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *out != "" {
			ext := ".txt"
			if *csv {
				ext = ".csv"
			}
			path := filepath.Join(*out, e.ID+ext)
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "expgen:", err)
				os.Exit(1)
			}
			werr := emitTo(f, tab, *csv)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "expgen:", werr)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
			continue
		}
		if err := emit(tab, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "expgen: %v\n", err)
			os.Exit(1)
		}
		if i != len(todo)-1 {
			fmt.Println()
		}
	}
}

func emitTo(w *os.File, tab *trace.Table, csv bool) error {
	if csv {
		return tab.FprintCSV(w)
	}
	return tab.Fprint(w)
}

func emit(tab *trace.Table, csv bool) error {
	if csv {
		return tab.FprintCSV(os.Stdout)
	}
	return tab.Fprint(os.Stdout)
}

// writeReport renders every experiment into one markdown document: the
// title as a heading, the table in a fenced block.
func writeReport(path string, todo []experiments.Experiment, cfg experiments.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# ProPack reproduction report\n\n")
	fmt.Fprintf(f, "Generated by `expgen -report` (seed %d, quick=%v). See EXPERIMENTS.md\n", cfg.Seed, cfg.Quick)
	fmt.Fprintf(f, "for the paper-vs-measured analysis of each table.\n")
	for _, e := range todo {
		tab, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(f, "\n## %s — %s\n\n```\n", e.ID, e.Title)
		if err := tab.Fprint(f); err != nil {
			return err
		}
		fmt.Fprintf(f, "```\n")
	}
	return nil
}
