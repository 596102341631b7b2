package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/obs"
)

// obsSink is the observability stack behind a command run: the recorder to
// hand to the execution layer (nil when no flag asked for one — the
// simulator then pays nothing), the logger, and the teardown that flushes
// the exporters.
type obsSink struct {
	Rec obs.Recorder
	Log *slog.Logger

	mem       *obs.Memory
	reg       *obs.Registry
	events    *os.File
	jsonl     *obs.JSONL
	tracePath string
	stages    bool
	stopDebug func() error
}

// obsFlags registers the observability flag set shared by the execution
// commands and returns a constructor that assembles the recorder stack from
// the parsed flags. Callers defer closeInto on their named error result.
func obsFlags(fs *flag.FlagSet) func() (*obsSink, error) {
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
	eventsOut := fs.String("events", "", "stream span/event records as JSON lines to this file")
	stages := fs.Bool("stages", false, "print a per-stage span summary after the run")
	verbose := fs.Bool("v", false, "debug logging (includes every lifecycle span)")
	logfmt := fs.String("logfmt", "text", "log format: text or json")
	debugAddr := fs.String("debug.addr", "", "serve /debug/pprof, /debug/vars and /metrics on this address during the run")
	return func() (*obsSink, error) {
		logger, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
		if err != nil {
			return nil, err
		}
		s := &obsSink{Log: logger, tracePath: *traceOut, stages: *stages}
		var recs []obs.Recorder
		if *traceOut != "" || *stages {
			s.mem = &obs.Memory{}
			recs = append(recs, s.mem)
		}
		if *eventsOut != "" {
			f, err := os.Create(*eventsOut)
			if err != nil {
				return nil, err
			}
			s.events = f
			s.jsonl = obs.NewJSONL(f)
			recs = append(recs, s.jsonl)
		}
		if *debugAddr != "" {
			s.reg = obs.NewRegistry()
			recs = append(recs, &obs.RegistryRecorder{Reg: s.reg})
			addr, stop, err := obs.StartDebug(*debugAddr, s.reg)
			if err != nil {
				s.Close()
				return nil, err
			}
			s.stopDebug = stop
			logger.Info("debug server up", "addr", addr)
		}
		if *verbose {
			recs = append(recs, &obs.LogRecorder{L: logger})
		}
		s.Rec = obs.Multi(recs...)
		return s, nil
	}
}

// Close flushes the exporters: the Chrome trace and the stage summary are
// rendered from the in-memory record, the events file is synced, and the
// debug server is shut down.
func (s *obsSink) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.tracePath != "" && s.mem != nil {
		f, err := os.Create(s.tracePath)
		if err == nil {
			keep(obs.WriteChromeTrace(f, s.mem.Bursts()))
			keep(f.Close())
			fmt.Fprintf(os.Stderr, "trace written to %s — open at https://ui.perfetto.dev\n", s.tracePath)
		} else {
			keep(err)
		}
	}
	if s.stages && s.mem != nil {
		keep(obs.FprintStageSummary(os.Stdout, s.mem.Bursts()))
	}
	if s.jsonl != nil {
		keep(s.jsonl.Err())
	}
	if s.events != nil {
		keep(s.events.Close())
	}
	if s.stopDebug != nil {
		keep(s.stopDebug())
	}
	return first
}

// closeInto closes the sink and reports the close error in *err unless the
// command already failed: a command defers it right after setup, so every
// exit flushes the exporters once and a lost trace is never silent.
func (s *obsSink) closeInto(err *error) {
	if cerr := s.Close(); *err == nil {
		*err = cerr
	}
}
