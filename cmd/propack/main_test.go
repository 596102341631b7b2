package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestUsageListsEveryCommand pins the help text to the dispatch table: a
// subcommand added to `commands` shows up in `propack -h` by construction,
// and this test fails if anyone reintroduces a hand-maintained usage string
// that misses one.
func TestUsageListsEveryCommand(t *testing.T) {
	var sb strings.Builder
	usage(&sb)
	help := sb.String()
	if len(commands) < 9 {
		t.Fatalf("command table has %d entries; expected at least 9 (did dispatch move off the table?)", len(commands))
	}
	for _, c := range commands {
		if !strings.Contains(help, "  "+c.name+" ") && !strings.Contains(help, "  "+c.name+"\n") {
			t.Errorf("usage output missing command %q:\n%s", c.name, help)
		}
		if c.summary == "" {
			t.Errorf("command %q has no summary", c.name)
		}
		if !strings.Contains(help, c.summary) {
			t.Errorf("usage output missing summary for %q", c.name)
		}
		if c.run == nil {
			t.Errorf("command %q has no implementation", c.name)
		}
	}
}

func TestCommandByName(t *testing.T) {
	for _, c := range commands {
		got := commandByName(c.name)
		if got == nil || got.name != c.name {
			t.Errorf("commandByName(%q) = %v", c.name, got)
		}
	}
	if got := commandByName("no-such-command"); got != nil {
		t.Errorf("commandByName(no-such-command) = %v, want nil", got)
	}
}

func TestCommandNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("duplicate command %q", c.name)
		}
		seen[c.name] = true
	}
}

// TestFaultFlagsNeverPanic: flag.Float64 parses "NaN" and "Inf", so every
// fault-injection flag can carry one into a platform.Config, and a finite
// extreme such as 1e308 passes Validate yet overflows virtual time once it
// multiplies a duration or is added to the clock. Whatever the flag and
// whatever else is set, the outcome is an error from Validate or from the
// run, or a configuration that simulates — never a panic inside the engine,
// and never a NaN silently read as "this fault is off".
func TestFaultFlagsNeverPanic(t *testing.T) {
	// Flags that are applied whenever set must be refused outright; the rest
	// matter only beside the flag that switches their feature on.
	always := map[string]bool{"crashrate": true, "startfailprob": true, "stragglerprob": true,
		"exectimeout": true, "retrybase": true, "hedge": true}
	companions := [][]string{nil, {"-stragglerprob", "0.5"}, {"-hedge", "90"}, {"-retrybase", "1", "-retry", "exponential"},
		{"-startfailprob", "0.5", "-retrycap", "0"}} // start failures retried on an uncapped backoff
	probe := flag.NewFlagSet("probe", flag.ContinueOnError)
	faultFlags(probe)
	var floats []string
	probe.VisitAll(func(f *flag.Flag) {
		if _, err := strconv.ParseFloat(f.DefValue, 64); err == nil && f.Name != "retryattempts" {
			floats = append(floats, f.Name)
		}
	})
	if len(floats) != 9 {
		t.Fatalf("fault flag set has %d float flags %v, the test knows 9", len(floats), floats)
	}
	d := workload.Video{}.Demand()
	for _, name := range floats {
		for _, v := range []string{"NaN", "+Inf", "-Inf", "1e308"} {
			for _, with := range companions {
				if slices.Contains(with, "-"+name) {
					continue
				}
				args := append([]string{"-" + name, v}, with...)
				fs := flag.NewFlagSet("run", flag.ContinueOnError)
				apply := faultFlags(fs)
				if err := fs.Parse(args); err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				cfg, err := apply(platform.AWSLambda())
				if err != nil {
					continue
				}
				if always[name] && v != "1e308" {
					t.Errorf("%v: accepted", args)
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%v: validated clean, then panicked: %v", args, p)
						}
					}()
					// Retry exhaustion and an overflowing instant are
					// legitimate errors; a panic is not.
					_, _ = platform.Run(cfg, platform.Burst{Demand: d, Functions: 64, Degree: 4, Seed: 1})
				}()
			}
		}
	}
}

// TestAdviseRejectsNonFiniteFailureModel: flag.Float64 parses NaN and Inf,
// and advise used to plan with them and exit 0 — a NaN retry delay printed
// "predicted service: NaNs", an infinite crash rate "$NaN" — and read a
// negative or NaN -qos or -crashrate as "off". It also planned with a -ws
// outside [0,1] whenever -qos replaced it, and with a -mem.grid holding an
// empty entry, both of which /v1 refused. The binary must exit 1 with the
// validation error instead, before any probe runs.
func TestAdviseRejectsNonFiniteFailureModel(t *testing.T) {
	bin := buildPropack(t)
	const (
		nonFinite = "non-finite failure-model parameter"
		negative  = "negative failure-model parameter"
		badQoS    = "is not a finite p95 bound in seconds"
		badWeight = "core: weights outside [0,1]"
		badGrid   = "bad memory size"
	)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"advise", "-crashrate", "0.001", "-retrydelay", "NaN"}, nonFinite},
		{[]string{"advise", "-crashrate", "+Inf"}, nonFinite},
		{[]string{"advise", "-crashrate", "NaN"}, nonFinite},
		{[]string{"advise", "-crashrate", "-1"}, negative},
		{[]string{"advise", "-qos", "-1"}, badQoS},
		{[]string{"advise", "-qos", "NaN"}, badQoS},
		{[]string{"advise", "-qos", "+Inf"}, badQoS},
		{[]string{"advise", "-mem.grid", "5120,10240", "-qos", "-1"}, badQoS},
		{[]string{"advise", "-qos", "300", "-ws", "2"}, badWeight},
		{[]string{"advise", "-mem.grid", "5120,10240", "-qos", "300", "-ws", "2"}, badWeight},
		{[]string{"advise", "-mem.grid", "5120,,10240"}, badGrid},
		{[]string{"advise", "-mem.grid", "5120,10240,"}, badGrid},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("propack %v: exit %v, want status 1\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("propack %v: no %q error in the output:\n%s", tc.args, tc.want, out)
		}
		if strings.Contains(string(out), "probe runs") {
			t.Errorf("propack %v: probed before rejecting the flag:\n%s", tc.args, out)
		}
	}
}

// TestRunRejectsOversizedBurst: a -c whose ceil(C/P) overflowed used to
// panic `propack run` in makeslice (at -degree 2 in Burst.Instances, at
// -degree 1 in sizing the columns), and one merely too large ran the process
// out of memory. Each must exit 1 with the burst's validation error.
func TestRunRejectsOversizedBurst(t *testing.T) {
	bin := buildPropack(t)
	for _, args := range [][]string{
		{"run", "-c", "9223372036854775807", "-degree", "2"},
		{"run", "-c", "9223372036854775807", "-degree", "1"},
		{"run", "-c", "4000000000000"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("propack %v: exit %v, want status 1\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "instances, more than 2147483647") {
			t.Errorf("propack %v: no validation error in the output:\n%s", args, out)
		}
	}
}

// TestHeteroDoorsAgree: `propack hetero` fanned its three deployments out
// before anything judged the counts, and the unpacked one appends a bin per
// function, so `-ca 9223372036854775807` ran the process out of memory. The
// door must refuse in process, before it profiles or allocates anything per
// function, with the error core.PlanMixed and /v1/mixed give for the same job.
func TestHeteroDoorsAgree(t *testing.T) {
	const maxInt = math.MaxInt
	jobs := [][2]int{{maxInt, 5}, {5, maxInt}, {maxInt, maxInt}, {20000, 1}, {0, 5}, {-maxInt, maxInt}}
	doorErrs := make([]error, len(jobs))
	for i, c := range jobs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		doorErrs[i] = cmdHetero([]string{"-ca", strconv.Itoa(c[0]), "-cb", strconv.Itoa(c[1])})
		runtime.ReadMemStats(&after)
		if doorErrs[i] == nil {
			t.Fatalf("hetero %v: planned", c)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("hetero %v: %d bytes allocated before the refusal", c, got)
		}
	}

	s, err := server.New(server.Config{TenantRPS: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	app := func(name string, count int) core.App {
		return core.App{Name: name, MemoryMB: 512, Count: count, ET: core.ETModel{MfuncGB: 0.5, Alpha: 0.1}}
	}
	for i, c := range jobs {
		door := doorErrs[i].Error()
		_, lib := core.PlanMixed([]core.App{app("Video", c[0]), app("Sort", c[1])}, core.MixedPlanOptions{})
		if lib == nil || lib.Error() != door {
			t.Errorf("hetero %v: propack hetero says %q, core.PlanMixed %v", c, door, lib)
		}
		if c[0] < 1 || c[1] < 1 {
			continue // the route refuses a count < 1 as it parses the spec
		}
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/v1/mixed?platform=aws&app=Video:%d&app=Sort:%d", c[0], c[1]), nil))
		var body struct{ Error string }
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || rr.Code != http.StatusBadRequest || body.Error != door {
			t.Errorf("hetero %v: propack hetero says %q, /v1/mixed answers %d %s", c, door, rr.Code, rr.Body)
		}
	}
}
