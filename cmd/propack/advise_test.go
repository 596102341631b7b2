package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestAdviseGolden pins `propack advise`'s stdout, byte for byte, for each
// kind of planning question: weighted, QoS-bounded (here infeasible, so the
// models print and the command exits 1), reliability-aware, and joint over a
// memory grid with and without a bound. Regenerate with
//
//	go test ./cmd/propack -run TestAdviseGolden -update
//
// on an intended model or output change.
func TestAdviseGolden(t *testing.T) {
	bin := buildPropack(t)
	for _, tc := range []struct {
		name string
		args []string
		exit int
	}{
		{"default", nil, 0},
		{"ws", []string{"-ws", "0.2"}, 0},
		{"qos", []string{"-qos", "120"}, 1},
		{"crashrate", []string{"-crashrate", "0.005"}, 0},
		{"grid", []string{"-mem.grid", "2560,5120,10240"}, 0},
		{"grid_qos", []string{"-mem.grid", "2560,5120,10240", "-qos", "300"}, 0},
	} {
		cmd := exec.Command(bin, append([]string{"advise"}, tc.args...)...)
		out, err := cmd.Output()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("advise %v: %v", tc.args, err)
		}
		if exit != tc.exit {
			t.Errorf("advise %v: exit %d, want %d\n%s", tc.args, exit, tc.exit, out)
		}
		golden := filepath.Join("testdata", "advise_"+tc.name+".golden.txt")
		if *update {
			if err := os.WriteFile(golden, out, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if string(out) != string(want) {
			t.Errorf("advise %v drifted from %s:\ngot:\n%s\nwant:\n%s", tc.args, golden, out, want)
		}
	}
}

// TestAdviseDoorsAgree sends each parameter the doors share through
// `propack advise` (the built binary) and through the /v1 route that asks
// the same question (in process), with hostile spellings of each value, and
// requires the same verdict: both plan, or both refuse. A door refusing
// what the other plans is a rule kept in the wrong place.
func TestAdviseDoorsAgree(t *testing.T) {
	bin := buildPropack(t)
	s, err := server.New(server.Config{TenantRPS: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	grid17 := make([]string, 17)
	for i := range grid17 {
		grid17[i] = strconv.Itoa(2048 + 512*i)
	}
	// The documented exceptions, and the only ones: /v1/qos asks the QoS
	// question, so it refuses a bound of 0, which advise reads as none; and
	// the daemon profiles at most 16 memory sizes in one request.
	exception := map[string]bool{
		"qos -0": true, "qos 0": true,
		"joint sizes=" + strings.Join(grid17, ","): true,
	}
	for _, door := range []struct {
		route, param, flag string
		values             []string
		cli                []string // further advise flags
		query              string   // the same, on the route
	}{
		{route: "advise", param: "c", flag: "-c"},
		{route: "advise", param: "ws", flag: "-ws"},
		{route: "qos", param: "qos", flag: "-qos"},
		{route: "joint", param: "qos", flag: "-qos", cli: []string{"-mem.grid", "5120,10240"}, query: "&sizes=5120,10240"},
		{route: "joint", param: "sizes", flag: "-mem.grid", values: []string{strings.Join(grid17, ",")}},
	} {
		for _, v := range append([]string{"NaN", "+Inf", "-Inf", "-1", "-0", "0", "1e308", "0x1p-2"}, door.values...) {
			args := append([]string{"advise", door.flag, v}, door.cli...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			var ee *exec.ExitError
			if err != nil && !errors.As(err, &ee) {
				t.Fatalf("propack %v: %v", args, err)
			}
			cliPlans := err == nil

			path := "/v1/" + door.route + "?app=Video&platform=aws&" + door.param + "=" + url.QueryEscape(v) + door.query
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			routePlans := rr.Code == http.StatusOK

			name := door.route + " " + v
			if door.route != door.param {
				name = door.route + " " + door.param + "=" + v
			}
			if exception[name] {
				if cliPlans == routePlans {
					t.Errorf("%s: the documented exception no longer holds (both plan: %v)", name, cliPlans)
				}
				continue
			}
			if cliPlans != routePlans {
				t.Errorf("%s: advise plans %v, %s answers %d\nadvise:\n%s\nroute: %s",
					name, cliPlans, path, rr.Code, out, rr.Body)
			}
		}
	}
}
