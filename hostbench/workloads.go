package main

import (
	"fmt"
	"io"
	"math"

	"skyloft/internal/apps/server"
	"skyloft/internal/bench"
	"skyloft/internal/obs"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Trial windows. Every trial runs under its own seed, derived from the
// workload seed and the trial's index, so one seed fixes the whole trial
// set while the trials' arrival streams stay independent.
const (
	rocksWarmup   = 10 * simtime.Millisecond
	rocksDuration = 10 * simtime.Millisecond
	synthWarmup   = 30 * simtime.Millisecond
	synthDuration = 50 * simtime.Millisecond
	// Each Fig. 7a point runs under several derived seeds. Near saturation
	// the backlog, and with it a trial's work and allocation, depends
	// strongly on the seed; averaging over seeds keeps one seed's luck out
	// of the workload's cost. A Fig. 8b point costs thirty times more host
	// time per simulated second, so it runs once per round.
	synthSeeds = 4
	// observedDuration keeps each observed run inside the 65,536-event
	// trace ring (80 ms retains about 52k events, 100 ms wraps), so the
	// workload is lengthened by repeating runs, never by a longer window.
	observedDuration = 80 * simtime.Millisecond
	observedRuns     = 3
)

// Loads as fractions of the workload's theoretical capacity: a mid load and
// a near-saturation load, as in the quick figure sweeps.
var loadFracs = []float64{0.5, 0.95}

// trial is one call into the harness's public entry points plus the
// post-run calls that belong to it.
type trial struct {
	name    string
	virtual simtime.Duration // warm-up plus measurement window
	run     func(sp *spanLog) (outcome, error)
}

// outcome is what a trial reports about the simulation it ran. digest
// covers everything simulated; the counts feed the per-layer metrics.
type outcome struct {
	digest        uint64
	requests      uint64
	events        uint64 // simtime events dispatched (observed runs only)
	traceTotal    uint64
	traceRetained uint64
}

type workload struct {
	name   string
	trials func(seed uint64) []trial
}

var workloads = []workload{
	{"rocksdb-scan", rocksdbTrials},
	{"dispersive", dispersiveTrials},
	{"observed-preempt", observedTrials},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rocksdbTrials is Fig. 8b: Skyloft with a 5 µs preemption quantum and
// Shenango, each at a mid and a near-saturation load.
func rocksdbTrials(seed uint64) []trial {
	capacity := bench.Capacity(bench.Fig8bWorkers, server.RocksDBClasses())
	systems := []struct {
		sys     bench.NetSystem
		quantum simtime.Duration
	}{
		{bench.NetSkyloftPre, 5 * simtime.Microsecond},
		{bench.NetShenango, 0},
	}
	var out []trial
	for _, s := range systems {
		for _, f := range loadFracs {
			cfg := bench.NetConfig{
				System: s.sys, App: "rocksdb", Workers: bench.Fig8bWorkers,
				Quantum: s.quantum, Rate: f * capacity,
				Duration: rocksDuration, Warmup: rocksWarmup, Seed: deriveSeed(seed, uint64(len(out))),
			}
			out = append(out, trial{
				name:    fmt.Sprintf("%s@%.2f", s.sys, f),
				virtual: rocksWarmup + rocksDuration,
				run: func(sp *spanLog) (outcome, error) {
					var lp bench.LoadPoint
					sp.do("bench.RunNetApp", func() { lp = bench.RunNetApp(cfg) })
					return loadPointOutcome(lp)
				},
			})
		}
	}
	return out
}

// dispersiveTrials is Fig. 7a: the four centralized systems, each at a mid
// and a near-saturation load.
func dispersiveTrials(seed uint64) []trial {
	capacity := bench.Capacity(bench.Fig7Workers, server.DispersiveClasses())
	var out []trial
	for _, s := range bench.SynthSystems() {
		for _, f := range loadFracs {
			for k := 0; k < synthSeeds; k++ {
				cfg := bench.SynthConfig{
					System: s, Quantum: 30 * simtime.Microsecond, Rate: f * capacity,
					Duration: synthDuration, Warmup: synthWarmup, Seed: deriveSeed(seed, uint64(len(out))),
				}
				out = append(out, trial{
					name:    fmt.Sprintf("%s@%.2f#%d", s, f, k),
					virtual: synthWarmup + synthDuration,
					run: func(sp *spanLog) (outcome, error) {
						var lp bench.LoadPoint
						sp.do("bench.RunSynthetic", func() { lp = bench.RunSynthetic(cfg) })
						return loadPointOutcome(lp)
					},
				})
			}
		}
	}
	return out
}

func loadPointOutcome(lp bench.LoadPoint) (outcome, error) {
	if lp.Done == 0 {
		return outcome{}, fmt.Errorf("no request completed")
	}
	return outcome{digest: loadPointDigest(newDigest(), lp).sum(), requests: lp.Done}, nil
}

func loadPointDigest(d digest, lp bench.LoadPoint) digest {
	for _, f := range []float64{lp.Offered, lp.Throughput, lp.P50, lp.P99, lp.P999Slow, lp.BEShare} {
		d = d.add(math.Float64bits(f))
	}
	return d.add(lp.Done)
}

// observedTrials is per-CPU RR at 25 µs with 100 kHz LAPIC timers on four
// cores, with the causal tracer, the occupancy profiler and a live bus
// attached, followed by the batch analyses and the Perfetto export.
func observedTrials(seed uint64) []trial {
	out := make([]trial, observedRuns)
	for i := range out {
		runSeed := deriveSeed(seed, uint64(i))
		out[i] = trial{
			name:    fmt.Sprintf("run%d", i),
			virtual: observedDuration,
			run:     func(sp *spanLog) (outcome, error) { return observedRun(sp, runSeed) },
		}
	}
	return out
}

func observedRun(sp *spanLog, seed uint64) (outcome, error) {
	var (
		bus    *live.Bus
		clock  simtime.EventCore
		run    *bench.Observed
		err    error
		report *doctor.Report
	)
	sp.do("bench.ObservedRunOpts", func() {
		run = bench.ObservedRunOpts(seed, observedDuration, bench.ObserveOpts{
			Profile: true,
			Causal:  true,
			PreRun: func(h bench.RunHooks) {
				clock = h.Clock
				bus = live.Attach(live.Config{}, live.Source{
					Clock: h.Clock, Ring: h.Ring, Registry: h.Registry,
					Profiler: h.Profiler, AppNames: h.AppNames,
					Workers: h.Workers, Causal: h.Causal,
				})
			},
		})
	})
	sp.do("live.Bus.Close", func() { err = bus.Close() })
	if err != nil {
		return outcome{}, fmt.Errorf("live bus: %w", err)
	}
	res := outcome{
		events:        clock.Dispatched(),
		traceTotal:    run.Ring.Total(),
		traceRetained: uint64(len(run.Events)),
	}
	if res.traceTotal != res.traceRetained {
		return res, fmt.Errorf("trace ring wrapped: %d events recorded, %d retained", res.traceTotal, res.traceRetained)
	}
	sp.do("trace.Validate", func() { err = trace.Validate(run.Events) })
	if err != nil {
		return res, fmt.Errorf("trace: %w", err)
	}
	sp.do("obs.SpanSet.Validate", func() { err = run.Spans.Validate() })
	if err != nil {
		return res, fmt.Errorf("spans: %w", err)
	}
	sp.do("doctor.Analyze", func() {
		report = doctor.Analyze(run.Events, run.Spans, doctor.Config{
			TickPeriod: simtime.Second / bench.SkyloftTimerHz,
			Cores:      run.Workers,
		})
	})
	sp.do("obs.SpanSet.Report", func() { err = run.Spans.Report(io.Discard, run.AppNames) })
	if err != nil {
		return res, fmt.Errorf("span report: %w", err)
	}
	sp.do("causal.Tracer.Report", func() { err = run.Causal.Report(io.Discard) })
	if err != nil {
		return res, fmt.Errorf("causal report: %w", err)
	}
	sp.do("obs.WritePerfetto", func() {
		err = obs.WritePerfetto(io.Discard, run.Events, obs.ExportConfig{
			NumCPUs: run.Workers, AppNames: run.AppNames, Instants: true,
			Flows: run.Causal.FlowJourneys(),
		})
	})
	if err != nil {
		return res, fmt.Errorf("perfetto: %w", err)
	}
	res.requests = uint64(len(run.Spans.Spans))
	if res.requests == 0 {
		return res, fmt.Errorf("no span completed")
	}
	res.digest = newDigest().
		add(res.traceTotal).add(run.Ring.Hash()).add(run.Spans.Hash()).
		add(run.Causal.Hash()).add(bus.StreamHash()).
		add(uint64(len(report.Findings))).add(res.events).sum()
	return res, nil
}

// deriveSeed gives the i-th run of a workload its own seed (splitmix64 of
// the pair), so repeated runs differ yet one seed fixes them all.
func deriveSeed(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digest is FNV-1a over 64-bit words.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d digest) add(v uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(v & 0xff)
		d *= 1099511628211
		v >>= 8
	}
	return d
}

func (d digest) sum() uint64 { return uint64(d) }
