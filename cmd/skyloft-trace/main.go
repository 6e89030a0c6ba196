// Command skyloft-trace runs a mixed multi-application workload on Skyloft
// with the scheduling tracer enabled, validates the global scheduling
// invariants over the recorded history, and dumps the last events — the
// repository's analogue of `trace-cmd record && trace-cmd report` for the
// simulated machine.
//
// With the observability flags it also exports the run: -trace-out writes a
// Perfetto/Chrome trace_event JSON (open at https://ui.perfetto.dev),
// -metrics-out snapshots the metrics registry, -doctor-out writes the
// sched-doctor diagnosis (windowed telemetry, tail attribution, pathology
// findings) as JSON, -occupancy prints the per-core busy/idle/kernel
// shares sampled on the virtual clock, and -causal-out writes the causal
// tracer's slow-episode exemplar document for cmd/skyloft-explain. Every
// *-out flag accepts "-" for stdout.
//
// The live telemetry flags stream the run while it executes: -live-out
// writes one NDJSON snapshot per virtual-time window ("-" for stdout),
// -live-http serves /snapshot and /history for cmd/skyloft-top, and
// -flight-dir arms the flight recorder's post-mortem bundle dump.
//
// Usage:
//
//	skyloft-trace [-n 40] [-dur 5ms] [-threads 8] \
//	              [-trace-out trace.json] [-metrics-out metrics.json] \
//	              [-doctor-out doctor.json] [-occupancy] \
//	              [-live-out live.ndjson] [-live-window 1ms] \
//	              [-live-http 127.0.0.1:7077] [-flight-dir DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/obs/live"
	"skyloft/internal/policy/mlfq"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

func main() {
	n := flag.Int("n", 40, "events to dump at the end")
	dur := flag.Duration("dur", 5*time.Millisecond, "virtual run length")
	threads := flag.Int("threads", 8, "churn threads")
	of := obs.BindFlags()
	flag.Parse()
	if err := of.StartProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := of.StopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	tr := trace.New(1 << 18)
	machine := hw.NewMachine(hw.DefaultConfig())
	engine := core.New(core.Config{
		Machine:   machine,
		CPUs:      []int{0, 1},
		Mode:      core.PerCPU,
		Policy:    mlfq.New(mlfq.DefaultParams()),
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerLAPIC,
		TimerHz:   100_000,
		Trace:     tr,
	})
	defer engine.Shutdown()

	var reg obs.Registry
	engine.RegisterMetrics(&reg)
	var prof *obs.Profiler
	if of.Occupancy {
		prof = engine.NewOccupancyProfiler(0)
		prof.Start()
	}
	// Episode-mode causal tracer: the churn workload has no request path, so
	// every wake-to-park episode is a journey. Attach-only — the trace
	// invariants validated below see the identical event stream.
	ctr := causal.New(causal.Config{Episodes: true, TickPeriod: simtime.Second / 100_000})
	ctr.SetDeliveryProber(engine)

	lc := engine.NewApp("lc")
	be := engine.NewApp("batch")
	for i := 0; i < *threads; i++ {
		app := lc
		if i%2 == 0 {
			app = be
		}
		app.Start(fmt.Sprintf("churn-%d", i), func(e sched.Env) {
			for {
				e.Run(simtime.Duration(5+e.Rand().Intn(60)) * simtime.Microsecond)
				if e.Rand().Bernoulli(0.3) {
					e.Sleep(simtime.Duration(1+e.Rand().Intn(30)) * simtime.Microsecond)
				}
			}
		})
	}
	sess, err := live.FromFlags(of, live.Config{}, live.Source{
		Clock:    machine.Clock,
		Ring:     tr,
		Registry: &reg,
		Profiler: prof,
		AppNames: engine.AppNames(),
		Workers:  engine.Workers(),
		Causal:   ctr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// After the bus: it reads the tracer's summaries at window close, so
	// its tap must run first.
	ctr.Attach(tr)
	engine.Run(simtime.Duration(dur.Nanoseconds()))
	if sess != nil {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(sess.Summary())
	}

	events := tr.Events()
	if err := trace.Validate(events); err != nil {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION: %v\n", err)
		os.Exit(1)
	}
	s := tr.Counts()
	fmt.Printf("trace: %d events (%d retained) — invariants OK\n", tr.Total(), len(events))
	fmt.Printf("dispatches=%d preempts=%d yields=%d blocks=%d wakes=%d appswitches=%d steals=%d leases=%d\n\n",
		s.Dispatches, s.Preempts, s.Yields, s.Blocks, s.Wakes, s.AppSwitches, s.Steals, s.LeaseEvents)

	spans := obs.BuildSpans(events)
	if err := spans.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "SPAN VIOLATION: %v\n", err)
		os.Exit(1)
	}
	names := engine.AppNames()
	if err := spans.Report(os.Stdout, names); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := ctr.Report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println()

	start := len(events) - *n
	if start < 0 {
		start = 0
	}
	for _, ev := range events[start:] {
		fmt.Println(ev)
	}

	if err := of.EmitTrace(events, obs.ExportConfig{
		NumCPUs: engine.Workers(), AppNames: names, Instants: true,
		Flows: ctr.FlowJourneys(),
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := of.EmitCausal(ctr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := of.EmitMetrics(&reg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := of.EmitOccupancy(os.Stdout, prof, names); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if of.DoctorOut != "" {
		diag := doctor.Analyze(events, spans, doctor.Config{
			TickPeriod: simtime.Second / 100_000, // the engine's 100 kHz timer
			Cores:      engine.Workers(),
		})
		if err := of.EmitDoctor(diag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
