package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// -update rewrites the serve golden files from the live responses (the same
// convention as the experiment goldens):
//
//	go test ./cmd/propack/ -run TestServeE2E -update
var update = flag.Bool("update", false, "rewrite testdata golden files")

// buildPropack compiles the real binary into a temp dir. The e2e test runs
// the artifact users run, not an in-process stand-in: flag parsing, signal
// handling, and process exit codes are all part of what it pins down.
func buildPropack(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "propack")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// serveProc is one running `propack serve` child process.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *strings.Builder
	mu     *sync.Mutex
}

func (p *serveProc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

var listenRE = regexp.MustCompile(`serve: listening.*addr=([0-9A-Za-z\.\[\]:]+:[0-9]+)`)

// Prometheus text-format 0.0.4 line grammar, mirrored from the obs package's
// exposition tests: the e2e re-validates from outside the process so a broken
// encoder cannot pass by agreeing with itself.
var (
	promTypeRE   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	promSampleRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9].*|[+-]Inf|NaN)$`)
)

// startServe launches the binary on an ephemeral port and scrapes the bound
// address from its startup log line.
func startServe(t *testing.T, bin string, extraArgs ...string) *serveProc {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, stderr: &strings.Builder{}, mu: &sync.Mutex{}}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(p.stderr, line)
			p.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("serve did not report a listen address; stderr:\n%s", p.stderrText())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return p
}

func httpGet(t *testing.T, url string, hdr map[string]string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestServeE2E drives the built binary end to end: golden responses for
// every /v1 endpoint, rate-limit shedding, a /metrics scrape validated line
// by line as Prometheus text (its family set pinned to
// testdata/serve_metrics_types.golden.txt), request-ID echo and access-log
// propagation, and a lossless SIGTERM drain with a request in flight (the
// in-flight request completes, the process exits 0). On an intended model,
// response-shape or telemetry-schema change, regenerate the goldens with
// `go test ./cmd/propack -run TestServeE2E -update`.
func TestServeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	bin := buildPropack(t)
	// Low sustained rate with a burst of 10: the handful of golden requests
	// (anonymous tenant) sail through; the hammer tenant below exhausts its
	// own bucket and sees 429s.
	p := startServe(t, bin, "-tenantrps", "1", "-tenantburst", "10", "-testhooks", "-seed", "1", "-accesslog")

	t.Run("golden", func(t *testing.T) {
		cases := []struct {
			name string
			path string
		}{
			{"advise", "/v1/advise?app=Video&platform=aws&c=2000&ws=0.5"},
			{"plan", "/v1/plan?app=Video&platform=aws&c=2000&degree=5"},
			{"qos", "/v1/qos?app=Xapian&platform=aws&c=2000&qos=120"},
			{"joint", "/v1/joint?app=Video&platform=aws&c=2000&sizes=5120,10240&ws=0.5"},
			{"mixed", "/v1/mixed?app=Video:60&app=Smith-Waterman:60&platform=aws&ws=0.5"},
		}
		for _, tc := range cases {
			code, body, _ := httpGet(t, p.base+tc.path, nil)
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", tc.path, code, body)
			}
			golden := filepath.Join("testdata", "serve_"+tc.name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if body != string(want) {
				t.Errorf("%s response drifted from %s:\ngot:\n%s\nwant:\n%s", tc.name, golden, body, want)
			}
		}
	})

	t.Run("ratelimit", func(t *testing.T) {
		hammer := map[string]string{"X-API-Key": "hammer"}
		path := p.base + "/v1/plan?app=Video&platform=aws&c=100&degree=2"
		var shed int
		for i := 0; i < 14; i++ {
			code, body, hdr := httpGet(t, fmt.Sprintf("%s&i=%d", path, i), hammer)
			switch code {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				shed++
				if hdr.Get("Retry-After") == "" {
					t.Fatalf("429 without Retry-After: %s", body)
				}
			default:
				t.Fatalf("request %d: status %d: %s", i, code, body)
			}
		}
		if shed == 0 {
			t.Fatal("hammer tenant never rate limited across 14 requests against a burst of 10")
		}
		// The hammer tenant's bucket is private: anonymous requests still pass.
		if code, body, _ := httpGet(t, path+"&i=anon", nil); code != http.StatusOK {
			t.Fatalf("anonymous request caught by hammer's limit: %d %s", code, body)
		}

		// The joint route sheds under the same per-tenant buckets. The sizes
		// match the golden request, so every accepted request is a cached
		// pool hit — the 429s come from the limiter, not from slow builds.
		jointHammer := map[string]string{"X-API-Key": "hammer-joint"}
		jointPath := p.base + "/v1/joint?app=Video&platform=aws&c=100&sizes=5120,10240"
		shed = 0
		for i := 0; i < 14; i++ {
			code, body, hdr := httpGet(t, fmt.Sprintf("%s&i=%d", jointPath, i), jointHammer)
			switch code {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				shed++
				if hdr.Get("Retry-After") == "" {
					t.Fatalf("joint 429 without Retry-After: %s", body)
				}
			default:
				t.Fatalf("joint request %d: status %d: %s", i, code, body)
			}
		}
		if shed == 0 {
			t.Fatal("joint hammer never rate limited across 14 requests against a burst of 10")
		}
	})

	t.Run("metrics", func(t *testing.T) {
		// A request with a caller-chosen ID: the ID must come back on the
		// response and appear in the daemon's access log.
		code, body, hdr := httpGet(t, p.base+"/v1/advise?app=Video&platform=aws&c=2000&ws=0.5",
			map[string]string{"X-Request-ID": "e2e-trace-1"})
		if code != http.StatusOK {
			t.Fatalf("advise: %d %s", code, body)
		}
		if got := hdr.Get("X-Request-ID"); got != "e2e-trace-1" {
			t.Fatalf("X-Request-ID not echoed: %q", got)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(p.stderrText(), "e2e-trace-1") {
			if time.Now().After(deadline) {
				t.Fatalf("request ID never reached the access log; stderr:\n%s", p.stderrText())
			}
			time.Sleep(20 * time.Millisecond)
		}
		// A request without an ID gets a server-minted one.
		_, _, hdr = httpGet(t, p.base+"/v1/advise?app=Video&platform=aws&c=2000&ws=0.5&i=noid", nil)
		if hdr.Get("X-Request-ID") == "" {
			t.Fatal("no server-minted X-Request-ID")
		}

		// The exposition must parse line by line, and its family set (the
		// sorted `# TYPE` lines) is pinned to a golden: a scrape target whose
		// families drift silently breaks dashboards and alerts.
		code, body, hdr = httpGet(t, p.base+"/metrics", nil)
		if code != http.StatusOK {
			t.Fatalf("/metrics: %d", code)
		}
		if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("/metrics Content-Type = %q, want Prometheus text format", ct)
		}
		var types []string
		for _, line := range strings.Split(body, "\n") {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "# TYPE ") {
				if !promTypeRE.MatchString(line) {
					t.Errorf("bad TYPE line: %q", line)
				}
				types = append(types, line)
				continue
			}
			if strings.HasPrefix(line, "#") || !promSampleRE.MatchString(line) {
				t.Errorf("unparseable exposition line: %q", line)
			}
		}
		for _, want := range []string{
			`http_route_requests_total{route="advise",code="200",tenant_class="anon"}`,
			`http_route_requests_total{route="joint",code="200",tenant_class="anon"}`,
			`http_route_requests_total{route="joint",code="429",tenant_class="keyed"}`,
			`_count{stage="plan"}`, // the plan child of stage_seconds
			`slo_error_rate{window="300s"}`,
			"go_goroutines",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
		golden := filepath.Join("testdata", "serve_metrics_types.golden.txt")
		gotTypes := strings.Join(types, "\n") + "\n"
		if *update {
			if err := os.WriteFile(golden, []byte(gotTypes), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if gotTypes != string(want) {
				t.Errorf("metric family set drifted from %s:\ngot:\n%s\nwant:\n%s", golden, gotTypes, want)
			}
		}

		// /slo answers with the burn-rate report.
		code, body, _ = httpGet(t, p.base+"/slo", nil)
		if code != http.StatusOK || !strings.Contains(body, "availability_burn") {
			t.Fatalf("/slo: %d %s", code, body)
		}
	})

	t.Run("drain", func(t *testing.T) {
		if code, _, _ := httpGet(t, p.base+"/readyz", nil); code != http.StatusOK {
			t.Fatalf("readyz before drain: %d", code)
		}
		// A slow request rides through the drain: SIGTERM lands while it is
		// in flight, and losslessness means it still completes with a 200.
		type result struct {
			code int
			err  error
		}
		slow := make(chan result, 1)
		go func() {
			resp, err := http.Get(p.base + "/v1/advise?app=Video&platform=aws&c=2000&delayms=1000")
			if err != nil {
				slow <- result{0, err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			slow <- result{resp.StatusCode, nil}
		}()
		time.Sleep(300 * time.Millisecond) // let the slow request reach the handler
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		r := <-slow
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("in-flight request dropped by drain: code %d err %v\nstderr:\n%s",
				r.code, r.err, p.stderrText())
		}
		// Read the log line before Wait: Wait closes the stderr pipe as soon
		// as the process is gone, under the scanner still draining it.
		deadline := time.Now().Add(5 * time.Second)
		for !strings.Contains(p.stderrText(), "drained cleanly") {
			if time.Now().After(deadline) {
				t.Fatalf("no clean-drain log line; stderr:\n%s", p.stderrText())
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("serve exited non-zero after SIGTERM: %v\nstderr:\n%s", err, p.stderrText())
		}
	})
}

// TestServeE2EHelp pins the binary's top-level help to the command table.
func TestServeE2EHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binary; skipped in -short")
	}
	bin := buildPropack(t)
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("propack -h: %v\n%s", err, out)
	}
	for _, c := range commands {
		if !strings.Contains(string(out), c.name) {
			t.Errorf("propack -h missing %q:\n%s", c.name, out)
		}
	}
}
