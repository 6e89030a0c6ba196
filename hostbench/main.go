// Command hostbench measures the host cost of the simulator: the wall-clock
// time, memory and per-layer CPU time it takes to run a figure's workload.
//
//	hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	hostbench -merge <result files...>
//
// A run builds the workload's fixed trial set from the seed, sets up (one
// untimed warm-up trial, five times), then runs the trial set in rounds,
// serially on one goroutine, until the time is up. Every trial's simulated
// result is hashed and checked against the committed references and
// against every other run of the same trial.
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates untraced rounds with rounds under the CPU profiler and span
// log, and prints the per-layer metrics (see README.md). The last line of
// standard output is the result object; the line before it is the full
// record, host fingerprint included, that -merge summarises.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"skyloft/internal/simtime"
)

// processStart anchors the first set-up's time at process start.
var processStart = time.Now()

const setups = 5

//go:embed reference.json
var referenceJSON []byte

// references maps workload, then seed, then trial name to the trial's
// expected digest in hex.
type references map[string]map[string]map[string]string

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run.
type record struct {
	Host      hostInfo          `json:"host"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   int               `json:"seconds"`
	RoundWall []float64         `json:"round_wall_s"` // untraced rounds
	Digests   map[string]string `json:"digests"`
	Errors    []string          `json:"errors,omitempty"`
	result
}

func main() {
	var (
		name      = flag.String("workload", "", "workload: rocksdb-scan, dispersive or observed-preempt")
		seed      = flag.Uint64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 10, "measurement time in seconds")
		traced    = flag.Int("trace", 0, "1 = profiled run reporting per-layer metrics")
		spansDir  = flag.String("spans-dir", "", "with --trace 1, write the span log into this directory")
		writeRefs = flag.String("write-refs", "", "record this run's digests as references in this file")
		merge     = flag.Bool("merge", false, "summarise the result files named as arguments")
	)
	flag.Parse()
	fatal := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(code)
	}
	if *merge {
		if err := mergeResults(os.Stdout, flag.Args()); err != nil {
			fatal(1, err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err == nil && (*traced != 0 && *traced != 1) {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err != nil {
		fatal(2, err)
	}
	rec, err := run(w, *seed, *seconds, *traced == 1, *spansDir)
	if err != nil {
		fatal(1, err)
	}
	if *writeRefs != "" && rec.Correct {
		if err := saveReferences(*writeRefs, w.name, *seed, rec.Digests); err != nil {
			fatal(1, err)
		}
	}
	for _, v := range []any{struct {
		Record record `json:"record"`
	}{rec}, rec.result} {
		line, err := json.Marshal(v)
		if err != nil {
			fatal(1, err)
		}
		fmt.Println(string(line))
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

// checker holds each trial's expected digest: the committed reference for
// this seed where there is one, otherwise the trial's first run. Every run
// of a trial must match it.
type checker struct {
	want     []uint64
	have     []bool
	errors   []string
	attempts int
	failed   int
}

func newChecker(trials []trial, refs map[string]string) (*checker, error) {
	c := &checker{want: make([]uint64, len(trials)), have: make([]bool, len(trials))}
	if refs == nil {
		return c, nil
	}
	if len(refs) != len(trials) {
		return nil, fmt.Errorf("references list %d trials, workload has %d", len(refs), len(trials))
	}
	for i, t := range trials {
		hex, ok := refs[t.name]
		if !ok {
			return nil, fmt.Errorf("no reference digest for trial %s", t.name)
		}
		if _, err := fmt.Sscanf(hex, "%x", &c.want[i]); err != nil {
			return nil, fmt.Errorf("reference digest for %s: %w", t.name, err)
		}
		c.have[i] = true
	}
	return c, nil
}

// runTrial runs trial i once and checks its outcome. A panic fails the
// trial rather than the benchmark.
func (c *checker) runTrial(trials []trial, i int, sp *spanLog) (o outcome) {
	c.attempts++
	t := trials[i]
	sp.beginTrial(t.name)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		o, err = t.run(sp)
		return err
	}()
	sp.endTrial()
	switch {
	case err != nil:
	case !c.have[i]:
		c.want[i], c.have[i] = o.digest, true
	case o.digest != c.want[i]:
		err = fmt.Errorf("digest %016x, want %016x", o.digest, c.want[i])
	}
	if err != nil {
		c.failed++
		if len(c.errors) < 10 {
			c.errors = append(c.errors, fmt.Sprintf("%s: %v", t.name, err))
		}
	}
	return o
}

// round is one pass over the trial set.
type round struct {
	wall    time.Duration
	alloc   uint64
	virtual simtime.Duration
	outcome // summed over the trials
}

func (c *checker) runRound(trials []trial, sp *spanLog) round {
	var r round
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	for i := range trials {
		o := c.runTrial(trials, i, sp)
		r.virtual += trials[i].virtual
		r.requests += o.requests
		r.events += o.events
		r.traceTotal += o.traceTotal
		r.traceRetained += o.traceRetained
	}
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - alloc0
	return r
}

func run(w workload, seed uint64, seconds int, traced bool, spansDir string) (record, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return record{}, fmt.Errorf("reference digests: %w", err)
	}
	// Set-up: build the inputs and run one untimed warm-up trial, several
	// times; the first is timed from process start. The warm-up is the last
	// trial, a near-saturation one, so that set-up is not a few
	// milliseconds lost in the host's noise.
	var (
		trials []trial
		c      *checker
		setup  []float64
	)
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		trials = w.trials(seed)
		if c == nil {
			var err error
			if c, err = newChecker(trials, refs[w.name][fmt.Sprint(seed)]); err != nil {
				return record{}, err
			}
		}
		c.runTrial(trials, len(trials)-1, nil)
		setup = append(setup, time.Since(t0).Seconds())
	}

	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var (
		plain, prof []round
		samples     []sample
		sp          *spanLog
	)
	if traced {
		sp = newSpanLog()
	}
	for next := time.Duration(0); len(plain) == 0 || (traced && len(prof) == 0) || time.Now().Add(next).Before(deadline); {
		r := c.runRound(trials, nil)
		plain = append(plain, r)
		next = r.wall
		if !traced {
			continue
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return record{}, fmt.Errorf("cpu profile: %w", err)
		}
		r = c.runRound(trials, sp)
		pprof.StopCPUProfile()
		prof = append(prof, r)
		next += r.wall
		s, err := parseCPUProfile(buf.Bytes())
		if err != nil {
			return record{}, err
		}
		samples = append(samples, s...)
	}

	rec := record{
		Host: fingerprint(), Workload: w.name, Seed: seed, Seconds: seconds,
		Digests: map[string]string{},
	}
	for _, r := range plain {
		rec.RoundWall = append(rec.RoundWall, r.wall.Seconds())
	}
	for i, t := range trials {
		if c.have[i] {
			rec.Digests[t.name] = fmt.Sprintf("%016x", c.want[i])
		}
	}
	m := map[string]metric{}
	rec.Correct = c.failed == 0
	if traced {
		rec.Trace = 1
		if err := layerMetrics(m, plain, prof, samples, sp); err != nil {
			return record{}, err
		}
		var probe probeResult
		if w.name == "rocksdb-scan" {
			var err error
			if probe, err = kvstoreProbe(seed); err != nil {
				rec.Correct = false
				c.errors = append(c.errors, err.Error())
			}
		}
		probeMetrics(m, probe)
		if spansDir != "" {
			path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
			if err := sp.write(path); err != nil {
				return record{}, fmt.Errorf("span log: %w", err)
			}
		}
	} else {
		rss, err := peakRSSBytes()
		if err != nil {
			return record{}, err
		}
		m["wall_s"] = metric{median(plain, func(r round) float64 { return r.wall.Seconds() }), "s"}
		m["host_s_per_vs"] = metric{median(plain, func(r round) float64 { return r.wall.Seconds() / virtualSeconds(r.virtual) }), "s/s"}
		m["alloc_mb"] = metric{median(plain, func(r round) float64 { return float64(r.alloc) / 1e6 }), "MB"}
		m["peak_rss_mb"] = metric{float64(rss) / 1e6, "MB"}
		m["setup_s"] = metric{medianOf(setup), "s"}
	}
	rec.Errors = c.errors
	rec.Attempted, rec.Failed = c.attempts, c.failed
	rec.Metrics = m
	return rec, nil
}

// layerMetrics derives the per-layer metrics from the profiled rounds, per
// round: CPU time by layer, simulated counts, span totals and the
// profiler's overhead against the untraced rounds.
func layerMetrics(m map[string]metric, plain, prof []round, samples []sample, sp *spanLog) error {
	times, err := layerTimes(samples)
	if err != nil {
		return err
	}
	n := float64(len(prof))
	share := shares(times)
	for _, l := range layers {
		m[l+".self_s"] = metric{float64(times[l]) / 1e9 / n, "s"}
		m[l+".share"] = metric{share[l], "fraction"}
	}
	last := prof[len(prof)-1]
	m["sim.requests"] = metric{float64(last.requests), "count"}
	m["sim.virtual_s"] = metric{virtualSeconds(last.virtual), "s"}
	m["simtime.events"] = metric{float64(last.events), "count"}
	simRun := sp.total("bench.RunNetApp", "bench.RunSynthetic", "bench.ObservedRunOpts", "live.Bus.Close")
	perEvent := 0.0
	if last.events > 0 {
		perEvent = float64(simRun.Nanoseconds()) / n / float64(last.events)
	}
	m["simtime.host_ns_per_event"] = metric{perEvent, "ns"}
	m["span.sim_run_s"] = metric{simRun.Seconds() / n, "s"}
	m["span.obs_analyze_s"] = metric{sp.total("trace.Validate", "obs.SpanSet.Validate", "doctor.Analyze").Seconds() / n, "s"}
	m["span.obs_export_s"] = metric{sp.total("obs.SpanSet.Report", "causal.Tracer.Report", "obs.WritePerfetto").Seconds() / n, "s"}
	m["trace.events"] = metric{float64(last.traceTotal), "count"}
	m["trace.retained"] = metric{float64(last.traceRetained), "count"}
	m["profile.samples"] = metric{float64(len(samples)), "count"}
	wall := func(r round) float64 { return r.wall.Seconds() }
	base := median(plain, wall)
	m["profile.overhead_pct"] = metric{(median(prof, wall) - base) / base * 100, "%"}
	return nil
}

func probeMetrics(m map[string]metric, p probeResult) {
	m["kvstore.put_us.p50"] = metric{quantileUs(p.put, 0.5), "us"}
	m["kvstore.put.samples"] = metric{float64(len(p.put)), "count"}
	m["kvstore.get_us.p50"] = metric{quantileUs(p.get, 0.5), "us"}
	m["kvstore.get.samples"] = metric{float64(len(p.get)), "count"}
	m["kvstore.scan_us.p50"] = metric{quantileUs(p.scan, 0.5), "us"}
	m["kvstore.scan_us.p99"] = metric{quantileUs(p.scan, 0.99), "us"}
	m["kvstore.scan.samples"] = metric{float64(len(p.scan)), "count"}
}

func virtualSeconds(d simtime.Duration) float64 { return float64(d) / float64(simtime.Second) }

func median(rs []round, f func(round) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// saveReferences records digests as the references for one workload and
// seed in the file at path.
func saveReferences(path, name string, seed uint64, digests map[string]string) error {
	refs := references{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if refs[name] == nil {
		refs[name] = map[string]map[string]string{}
	}
	refs[name][fmt.Sprint(seed)] = digests
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
