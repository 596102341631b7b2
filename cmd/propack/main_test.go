package main

import (
	"errors"
	"flag"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/platform"
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

func TestParseMemGrid(t *testing.T) {
	got, err := parseMemGrid(" 2048, 4096 ,10240 ")
	if err != nil {
		t.Fatalf("parseMemGrid: %v", err)
	}
	want := []float64{2048, 4096, 10240}
	if len(got) != len(want) {
		t.Fatalf("parseMemGrid = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseMemGrid = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", ",,", "abc", "2048,NaN", "2048,+Inf"} {
		if _, err := parseMemGrid(bad); err == nil {
			t.Errorf("parseMemGrid(%q) accepted", bad)
		}
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
// fault-injection flag can carry one into a platform.Config. Whatever the
// flag and whatever else is set, the outcome is an error from Validate or a
// configuration that simulates — never a panic inside the engine, and never
// a NaN silently read as "this fault is off".
func TestFaultFlagsNeverPanic(t *testing.T) {
	// Flags that are applied whenever set must be refused outright; the rest
	// matter only beside the flag that switches their feature on.
	always := map[string]bool{"crashrate": true, "startfailprob": true, "stragglerprob": true,
		"exectimeout": true, "retrybase": true, "hedge": true}
	companions := [][]string{nil, {"-stragglerprob", "0.1"}, {"-hedge", "90"}, {"-retrybase", "1", "-retry", "exponential"}}
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
		for _, v := range []string{"NaN", "+Inf", "-Inf"} {
			for _, with := range companions {
				if len(with) > 0 && with[0] == "-"+name {
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
				if always[name] {
					t.Errorf("%v: accepted", args)
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%v: validated clean, then panicked: %v", args, p)
						}
					}()
					// Retry exhaustion is a legitimate error; a panic is not.
					_, _ = platform.Run(cfg, platform.Burst{Demand: d, Functions: 64, Degree: 4, Seed: 1})
				}()
			}
		}
	}
}

// TestAdviseRejectsNonFiniteFailureModel: flag.Float64 parses NaN and Inf,
// and advise used to plan with them and exit 0 — a NaN retry delay printed
// "predicted service: NaNs", an infinite crash rate "$NaN" — and read a
// negative or NaN -qos or -crashrate as "off". The binary must exit 1 with
// the validation error instead, before any probe runs.
func TestAdviseRejectsNonFiniteFailureModel(t *testing.T) {
	bin := buildPropack(t)
	const (
		nonFinite = "non-finite failure-model parameter"
		negative  = "negative failure-model parameter"
		badQoS    = "-qos must be a positive p95 bound"
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
