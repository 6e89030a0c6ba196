package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"skyloft/internal/apps/server"
	"skyloft/internal/baseline/linuxsim"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// BenchReportVersion identifies the BENCH_skyloft.json schema; benchdiff
// refuses to compare reports with different versions.
const BenchReportVersion = 1

// BenchReport is the machine-readable benchmark summary: one key metric per
// figure/table of the paper plus the sched-doctor's findings, shaped for
// regression gating with cmd/benchdiff. The report is fully deterministic —
// virtual-time measurements only, map keys sorted by encoding/json, no
// wall-clock values — so two runs at the same seed are byte-identical.
type BenchReport struct {
	Version int    `json:"version"`
	Quick   bool   `json:"quick"`
	Seed    uint64 `json:"seed"`

	// Metrics maps dotted metric names ("fig5.linux-cfs.p99_us") to values.
	Metrics map[string]float64 `json:"metrics"`

	// Findings maps an experiment scope to the doctor findings it produced.
	// Scopes with no findings are present with an empty list, so benchdiff
	// can tell "clean" apart from "not analysed".
	Findings map[string][]doctor.Finding `json:"findings"`

	// Occupancy is the instrumented run's per-core occupancy profile.
	Occupancy *obs.OccupancySnapshot `json:"occupancy"`

	// DeterminismHash combines the instrumented run's trace-ring and span
	// hashes: the witness that the observed schedule itself — not just the
	// summary statistics — was reproduced.
	DeterminismHash string `json:"determinism_hash"`
}

// BuildReport runs the report's experiment subset at the given seed. quick
// shrinks the measurement windows (the Makefile gate uses quick). The
// subset is chosen to cover every paper claim the repo reproduces with one
// cheap, deterministic number each.
func BuildReport(seed uint64, quick bool) *BenchReport {
	r := &BenchReport{
		Version:  BenchReportVersion,
		Quick:    quick,
		Seed:     seed,
		Metrics:  map[string]float64{},
		Findings: map[string][]doctor.Finding{},
	}

	// Instrumented two-app run: span percentiles, doctor diagnosis,
	// occupancy, and the determinism witness.
	obsDur := 50 * simtime.Millisecond
	if quick {
		obsDur = 10 * simtime.Millisecond
	}
	run := ObservedRun(seed, obsDur, true)
	if err := ringIntact(run.Ring); err != nil {
		panic(fmt.Sprintf("bench: report's observed run: %v", err))
	}
	diag := doctor.Analyze(run.Events, run.Spans, doctor.Config{
		TickPeriod: simtime.Second / SkyloftTimerHz,
		Cores:      run.Workers,
	})
	r.Metrics["observed.spans"] = float64(diag.Spans)
	r.Metrics["observed.wake_p50_us"] = diag.WakeP50.Micros()
	r.Metrics["observed.wake_p99_us"] = diag.WakeP99.Micros()
	r.Metrics["observed.windows"] = float64(len(diag.Windows))
	r.Findings["observed"] = append([]doctor.Finding{}, diag.Findings...)
	r.Occupancy = run.Profiler.Snapshot()
	r.DeterminismHash = fmt.Sprintf("%016x-%016x", run.Ring.Hash(), run.Spans.Hash())

	// Fig. 5 at one oversubscribed worker count (32 workers on 24 cores —
	// queueing is what exposes the tick): the headline wakeup-latency gap,
	// plus the tick-bound verdict per scheduler — linux-cfs must show the
	// CONFIG_HZ signature, the µs-scale Skyloft schedulers must not.
	workers, reqs := 32, 50
	if quick {
		reqs = 15
	}
	fig5 := []SchbenchResult{
		SchbenchLinux(linuxsim.RRDefault, workers, reqs, seed),
		SchbenchLinux(linuxsim.CFSDefault, workers, reqs, seed),
		SchbenchSkyloft(SkyloftRR, 0, workers, reqs, seed),
		SchbenchSkyloft(SkyloftCFS, 0, workers, reqs, seed),
	}
	for _, res := range fig5 {
		r.Metrics["fig5."+res.Scheduler+".p50_us"] = res.Hist.P50().Micros()
		r.Metrics["fig5."+res.Scheduler+".p99_us"] = res.Hist.P99().Micros()
		scope := "fig5." + res.Scheduler
		if f, ok := doctor.TickBound(res.Hist); ok {
			r.Findings[scope] = []doctor.Finding{f}
		} else {
			r.Findings[scope] = []doctor.Finding{}
		}
	}

	// Fig. 6 endpoints: the RR-slice sweep's extremes.
	for _, slice := range fig6Slices {
		res := SchbenchSkyloft(SkyloftRR, slice, workers, reqs, seed)
		r.Metrics[fig6Key(slice)] = res.Hist.P99().Micros()
	}

	// Fig. 7a at one offered load (80% of capacity): p99 and throughput for
	// Skyloft vs the simulated-Linux baseline.
	dur := 100 * simtime.Millisecond
	if quick {
		dur = 30 * simtime.Millisecond
	}
	load := 0.8 * Capacity(Fig7Workers, server.DispersiveClasses())
	for _, sys := range []SynthSystem{SynthSkyloft, SynthLinuxCFS} {
		p := RunSynthetic(SynthConfig{System: sys, Rate: load, Duration: dur, Seed: seed})
		r.Metrics["fig7a."+string(sys)+".p99_us"] = p.P99
		r.Metrics["fig7a."+string(sys)+".throughput_rps"] = p.Throughput
	}

	// Observer probe: the 48-core Fig. 7a point bare, with the live bus
	// attached, and with the causal tracer attached.
	baseProbe, liveProbe, causalProbe := observerProbe(seed)
	// Live-bus cost on the same probe: extra dispatched events (boundary
	// ticks) as a percentage of the base run. The bus is attach-only, so
	// this is its *entire* modeled footprint; the 5%% acceptance bound is
	// enforced loudly here and regression-gated via benchdiff.
	overheadPct := 100 * float64(liveProbe.dispatched-baseProbe.dispatched) /
		float64(baseProbe.dispatched)
	if overheadPct > 5 {
		panic(fmt.Sprintf("bench: live bus overhead %.2f%% exceeds the 5%% bound", overheadPct))
	}
	r.Metrics["live.overhead_pct"] = overheadPct
	r.Metrics["live.windows"] = liveProbe.liveWindows
	// Causal tracer cost on the same probe: the tracer schedules no clock
	// events at all (ring tap + datapath callbacks only), so its modeled
	// overhead must be exactly zero — any dispatched-event delta means the
	// tracer perturbed the simulation, a correctness bug. The 0.5%% ceiling
	// is a loud tripwire, not an allowance.
	causalOverheadPct := 100 * float64(causalProbe.dispatched-baseProbe.dispatched) /
		float64(baseProbe.dispatched)
	if causalOverheadPct > 0.5 {
		panic(fmt.Sprintf("bench: causal tracer overhead %.2f%% exceeds the 0.5%% bound", causalOverheadPct))
	}
	r.Metrics["causal.overhead_pct"] = causalOverheadPct
	r.Metrics["causal.exemplar_coverage"] = causalProbe.causalCoverage
	r.Metrics["causal.exemplars"] = causalProbe.causalExemplars

	// Table 6: delivery cost per preemption mechanism (cycles).
	for _, row := range Table6() {
		r.Metrics["table6."+row.Name+".delivery_cycles"] = row.Delivery
	}
	// Table 7: simulated columns only — the Go column is measured on the
	// host's real runtime and would break byte-determinism.
	for _, row := range Table7() {
		r.Metrics["table7."+row.Op+".pthread_ns"] = row.Pthread
		r.Metrics["table7."+row.Op+".skyloft_ns"] = row.Skyloft
	}
	r.Metrics["micro.inter_app_switch_ns"] = float64(InterAppSwitch())

	// Chaos sentinel: one preset plan per delivery path attacked, at the
	// gate seed. Pins that fault injection still fires, the hardening layer
	// still engages, and no plan has started violating invariants — without
	// paying for the full four-plan replayed `make chaos` gate here.
	for _, name := range []string{"ipi-drop", "straggler-core"} {
		res, err := RunChaos(name, seed, 0)
		if err != nil {
			// Reports never existed without the presets; surface loudly.
			panic(fmt.Sprintf("bench: chaos sentinel %s: %v", name, err))
		}
		p := "chaos." + name
		r.Metrics[p+".injected"] = float64(res.Injected.Total())
		r.Metrics[p+".recoveries"] = float64(res.Recovery.WatchdogRecoveries +
			res.Recovery.Rescans + res.Recovery.IPIRetries)
		r.Metrics[p+".invariant_violations"] = float64(res.Violations)
		r.Metrics[p+".p999_ratio"] = res.P999Ratio
	}

	// Oversubscription sentinels: both lease presets at the gate seed. The
	// drift bands track the counters; the protocol's hard guarantees —
	// reclaim p99 inside the configured bound, zero invariant violations,
	// forced revocation actually engaged — are enforced loudly here, so a
	// report can never be generated from a broken lease protocol.
	for _, name := range OversubPresetNames() {
		res, err := RunOversub(name, seed, 0)
		if err != nil {
			panic(fmt.Sprintf("bench: oversub sentinel %s: %v", name, err))
		}
		if res.ReclaimP99Us > res.ReclaimBoundUs {
			panic(fmt.Sprintf("bench: %s reclaim p99 %.1fµs exceeds the %.1fµs bound",
				name, res.ReclaimP99Us, res.ReclaimBoundUs))
		}
		if res.Violations > 0 {
			msg := ""
			if len(res.ViolationMsgs) > 0 {
				msg = ": " + res.ViolationMsgs[0]
			}
			panic(fmt.Sprintf("bench: %s: %d invariant violations%s", name, res.Violations, msg))
		}
		if res.ForcedRevocations == 0 {
			panic(fmt.Sprintf("bench: %s: forced revocation never engaged", name))
		}
		p := "lease." + name
		r.Metrics[p+".grants"] = float64(res.Grants)
		r.Metrics[p+".forced_revocations"] = float64(res.ForcedRevocations)
		r.Metrics[p+".reclaim_p99_us"] = res.ReclaimP99Us
		r.Metrics[p+".reclaim_bound_us"] = res.ReclaimBoundUs
		r.Metrics[p+".invariant_violations"] = float64(res.Violations)
	}

	if err := checkPaperClaims(r.Metrics); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return r
}

// fig6Slices are the RR slices of the report's Fig. 6 endpoints, shortest
// first.
var fig6Slices = []simtime.Duration{25 * simtime.Microsecond, 400 * simtime.Microsecond}

func fig6Key(slice simtime.Duration) string { return fmt.Sprintf("fig6.rr-%v.p99_us", slice) }

// paperClaim is one of the paper's qualitative conclusions, stated as an
// ordering of report metrics: each metric of chain lies strictly below the
// next, or at most equal to it when orEqual is set.
type paperClaim struct {
	name    string
	orEqual bool
	chain   []string
}

// paperClaims lists the orderings the report must reproduce. The
// deviations EXPERIMENTS.md documents are deliberately not claims.
func paperClaims() []paperClaim {
	var claims []paperClaim
	for _, sky := range []string{"skyloft-cfs", "skyloft-rr"} {
		for _, linux := range []string{"linux-cfs", "linux-rr"} {
			claims = append(claims, paperClaim{
				name:  "Fig. 5: " + sky + " p99 below " + linux,
				chain: []string{"fig5." + sky + ".p99_us", "fig5." + linux + ".p99_us"},
			})
		}
	}
	var fig6 []string
	for _, slice := range fig6Slices {
		fig6 = append(fig6, fig6Key(slice))
	}
	claims = append(claims,
		paperClaim{name: "Fig. 6: p99 rises with the RR slice", chain: fig6},
		paperClaim{
			name:    "Fig. 7a: skyloft p99 at or below linux-cfs",
			orEqual: true,
			chain:   []string{"fig7a.skyloft.p99_us", "fig7a.linux-cfs.p99_us"},
		},
		paperClaim{
			name: "Table 6: user-timer < user-ipi < kernel-ipi < signal delivery",
			chain: []string{
				"table6.user-timer.delivery_cycles", "table6.user-ipi.delivery_cycles",
				"table6.kernel-ipi.delivery_cycles", "table6.signal.delivery_cycles",
			},
		})
	for _, op := range []string{"spawn", "yield", "condvar"} {
		claims = append(claims, paperClaim{
			name:  "Table 7: skyloft " + op + " beats pthread",
			chain: []string{"table7." + op + ".skyloft_ns", "table7." + op + ".pthread_ns"},
		})
	}
	return claims
}

// checkPaperClaims reports every paper claim the metrics break, or whose
// metrics are missing. benchdiff's drift bands alone would let a cost-model
// change invert a conclusion without failing anything.
func checkPaperClaims(metrics map[string]float64) error {
	var errs []error
	for _, c := range paperClaims() {
		for i := 1; i < len(c.chain); i++ {
			lo, hi := c.chain[i-1], c.chain[i]
			a, okA := metrics[lo]
			b, okB := metrics[hi]
			switch {
			case !okA || !okB:
				errs = append(errs, fmt.Errorf("paper claim %q: report lacks %s or %s", c.name, lo, hi))
			case a > b || (a == b && !c.orEqual):
				errs = append(errs, fmt.Errorf("paper claim %q fails: %s = %g is not below %s = %g",
					c.name, lo, a, hi, b))
			}
		}
	}
	return errors.Join(errs...)
}

// probeResult is one observer-probe run's measurement.
type probeResult struct {
	dispatched      uint64
	liveWindows     float64 // snapshots published (bus-attached run only)
	causalCoverage  float64 // completed/started journeys (causal run only)
	causalExemplars float64 // retained exemplars (causal run only)
}

// observerProbe runs the 48-core Fig. 7a quick load point three times —
// bare, with the live telemetry bus attached, and with the causal request
// tracer attached. The bus-attached run dispatches strictly more events
// (its boundary ticks); the delta is the bus's overhead. The causal run
// must dispatch exactly the base count — the tracer schedules nothing.
func observerProbe(seed uint64) (base, withLive, withCausal probeResult) {
	run := func(withBus, withTracer bool) probeResult {
		m := hw.NewMachine(hw.DefaultConfig()) // all 48 cores
		var bus *live.Bus
		var tr *trace.Ring
		var ctr *causal.Tracer
		if withBus {
			tr = trace.New(1 << 16)
			bus = live.Attach(live.Config{}, live.Source{Clock: m.Clock, Ring: tr})
		}
		if withTracer {
			if tr == nil {
				tr = trace.New(1 << 16)
			}
			ctr = causal.New(causal.Config{})
		}
		load := 0.8 * Capacity(Fig7Workers, server.DispersiveClasses())
		RunSynthetic(SynthConfig{
			System: SynthSkyloft, Rate: load,
			Duration: 30 * simtime.Millisecond, Warmup: 30 * simtime.Millisecond,
			Seed: seed, machine: m, tr: tr, ct: ctr,
		})
		res := probeResult{dispatched: m.Clock.Dispatched()}
		if res.dispatched == 0 {
			panic("bench: observer probe ran no events")
		}
		if bus != nil {
			bus.Close()
			res.liveWindows = float64(bus.Windows())
		}
		if ctr != nil {
			res.causalCoverage = ctr.Coverage()
			res.causalExemplars = float64(len(ctr.Exemplars()))
		}
		return res
	}
	return run(false, false), run(true, false), run(false, true)
}

// WriteJSON writes the report as indented JSON; output is byte-stable for
// identical inputs (encoding/json sorts map keys).
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
