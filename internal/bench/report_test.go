package bench

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"skyloft/internal/obs/doctor"
)

// Building the report runs real experiments; the tests share one build.
var (
	reportOnce   sync.Once
	cachedReport *BenchReport
)

func quickReport(t *testing.T) *BenchReport {
	t.Helper()
	if testing.Short() {
		t.Skip("bench report build in -short mode")
	}
	reportOnce.Do(func() { cachedReport = BuildReport(1, true) })
	return cachedReport
}

func copyReport(r *BenchReport) *BenchReport {
	c := *r
	c.Metrics = make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		c.Metrics[k] = v
	}
	c.Findings = make(map[string][]doctor.Finding, len(r.Findings))
	for k, v := range r.Findings {
		c.Findings[k] = append([]doctor.Finding(nil), v...)
	}
	return &c
}

func TestBenchReportSelfDiffEmpty(t *testing.T) {
	r := quickReport(t)
	if regs := DiffReports(r, r, DefaultDiffConfig()); len(regs) != 0 {
		t.Fatalf("self-diff not empty: %v", regs)
	}
}

// TestObserverProbe checks the report's observer probe: the bus-attached
// run dispatches its boundary ticks on top of the bare run (within the 5%
// ceiling BuildReport enforces) and publishes windows; the causal run
// dispatches exactly the bare count — the tracer schedules nothing — and
// completes nearly every journey.
func TestObserverProbe(t *testing.T) {
	m := quickReport(t).Metrics
	if pct := m["live.overhead_pct"]; pct <= 0 || pct > 5 {
		t.Errorf("live.overhead_pct = %v, want in (0, 5]", pct)
	}
	if m["live.windows"] == 0 {
		t.Error("bus-attached probe published no windows")
	}
	if pct := m["causal.overhead_pct"]; pct != 0 {
		t.Errorf("causal.overhead_pct = %v, want exactly 0", pct)
	}
	if cov := m["causal.exemplar_coverage"]; cov < 0.9 {
		t.Errorf("causal.exemplar_coverage = %.3f, want >= 0.9", cov)
	}
	if m["causal.exemplars"] == 0 {
		t.Error("causal probe retained no exemplars")
	}
}

// Two builds at the same seed must serialise to byte-identical JSON — the
// property the committed BENCH_skyloft.json and its gate rest on.
func TestBenchReportDeterministic(t *testing.T) {
	a := quickReport(t)
	b := BuildReport(1, true)
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("two builds differ:\n%s\nvs\n%s", ja.String(), jb.String())
	}
	if a.DeterminismHash == "" {
		t.Fatal("empty determinism hash")
	}
}

func TestDiffDetectsPerturbations(t *testing.T) {
	base := quickReport(t)
	cfg := DefaultDiffConfig()

	// Drift beyond both bands -> regression.
	pert := copyReport(base)
	pert.Metrics["fig5.linux-cfs.p99_us"] *= 2
	pert.Metrics["fig5.linux-cfs.p99_us"] += 10
	if regs := DiffReports(base, pert, cfg); len(regs) != 1 || regs[0].Metric != "fig5.linux-cfs.p99_us" {
		t.Fatalf("doubled metric not caught: %v", regs)
	}

	// Drift inside the relative band -> clean.
	small := copyReport(base)
	for k := range small.Metrics {
		small.Metrics[k] *= 1.01
	}
	if regs := DiffReports(base, small, cfg); len(regs) != 0 {
		t.Fatalf("1%% drift tripped the 25%% gate: %v", regs)
	}

	// A metric disappearing -> regression; a new metric -> clean.
	missing := copyReport(base)
	delete(missing.Metrics, "observed.wake_p99_us")
	missing.Metrics["brand.new_metric"] = 42
	regs := DiffReports(base, missing, cfg)
	if len(regs) != 1 || regs[0].Metric != "observed.wake_p99_us" {
		t.Fatalf("missing metric not caught (or new metric flagged): %v", regs)
	}

	// A pathology appearing in a previously clean scope -> regression; one
	// disappearing -> clean.
	sick := copyReport(base)
	sick.Findings["fig5.skyloft-cfs"] = []doctor.Finding{{Code: "tick-bound", Evidence: "injected"}}
	sick.Findings["fig5.linux-cfs"] = nil
	regs = DiffReports(base, sick, cfg)
	if len(regs) != 1 || regs[0].Metric != "fig5.skyloft-cfs" {
		t.Fatalf("injected pathology not caught: %v", regs)
	}

	// Version mismatch refuses the comparison outright.
	vers := copyReport(base)
	vers.Version++
	if regs := DiffReports(base, vers, cfg); len(regs) != 1 || regs[0].Metric != "version" {
		t.Fatalf("version mismatch not refused: %v", regs)
	}
}

func TestPerPrefixToleranceOverride(t *testing.T) {
	base := &BenchReport{Version: BenchReportVersion, Metrics: map[string]float64{
		"fig5.linux-cfs.p99_us": 100,
		"fig7a.skyloft.p99_us":  100,
	}}
	cand := copyReport(base)
	cand.Metrics["fig5.linux-cfs.p99_us"] = 140
	cand.Metrics["fig7a.skyloft.p99_us"] = 140
	cfg := DefaultDiffConfig()
	cfg.PerPrefix = map[string]Tolerance{"fig5.": {Rel: 0.5, Abs: 2}}
	regs := DiffReports(base, cand, cfg)
	if len(regs) != 1 || regs[0].Metric != "fig7a.skyloft.p99_us" {
		t.Fatalf("prefix override not applied: %v", regs)
	}
}

// The Fig. 5 acceptance check: the simulated Linux CFS baseline must show
// the CONFIG_HZ tick-bound signature, and the µs-scale skyloft-cfs must
// not — the doctor reproducing the paper's Fig. 5 reading automatically.
func TestFig5TickBoundSignature(t *testing.T) {
	r := quickReport(t)
	linux, ok := r.Findings["fig5.linux-cfs"]
	if !ok {
		t.Fatal("no fig5.linux-cfs findings scope")
	}
	if len(linux) == 0 || linux[0].Code != "tick-bound" {
		t.Fatalf("linux-cfs not flagged tick-bound: %+v", linux)
	}
	if hz := linux[0].Value; hz < 50 || hz > 1200 {
		t.Fatalf("implied Hz %v outside CONFIG_HZ range", hz)
	}
	for _, scope := range []string{"fig5.skyloft-cfs", "fig5.skyloft-rr"} {
		fs, ok := r.Findings[scope]
		if !ok {
			t.Fatalf("no %s findings scope", scope)
		}
		if len(fs) != 0 {
			t.Fatalf("%s falsely flagged: %+v", scope, fs)
		}
	}
}

// TestPaperClaims checks that the committed report reproduces the paper's
// orderings, that flipping any one of them on a copy is an error naming
// that claim, and that a claim whose metric disappeared fails closed.
func TestPaperClaims(t *testing.T) {
	committed, err := ReadReport(filepath.Join("..", "..", "BENCH_skyloft.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPaperClaims(committed.Metrics); err != nil {
		t.Fatalf("committed report breaks a paper claim: %v", err)
	}
	for _, c := range paperClaims() {
		t.Run(c.name, func(t *testing.T) {
			m := copyReport(committed).Metrics
			lo, hi := c.chain[0], c.chain[len(c.chain)-1]
			m[lo], m[hi] = m[hi], m[lo]
			if err := checkPaperClaims(m); err == nil || !strings.Contains(err.Error(), strconv.Quote(c.name)) {
				t.Errorf("flipping %s and %s: error %v does not name the claim", lo, hi, err)
			}
		})
	}
	m := copyReport(committed).Metrics
	delete(m, "table6.signal.delivery_cycles")
	if err := checkPaperClaims(m); err == nil || !strings.Contains(err.Error(), "report lacks") {
		t.Errorf("missing Table 6 metric: error %v, want a missing-metric error", err)
	}
}
