package bench

import (
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/policy/rr"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Observed is the result of one fully instrumented run: the raw event
// window, the stitched lifecycle spans, and the metrics/occupancy outputs.
// It backs the cmds' observability section and the span-derived
// wakeup-latency percentiles skyloft-bench reports per application.
type Observed struct {
	Ring     *trace.Ring
	Events   []trace.Event
	Spans    *obs.SpanSet
	AppNames []string
	Registry *obs.Registry
	Profiler *obs.Profiler
	Causal   *causal.Tracer
	Workers  int
}

// RunHooks is the instrumented run's attach surface, handed to
// ObserveOpts.PreRun after the engine, registry and workloads are built but
// before the run starts — the point where attach-only consumers (the live
// telemetry bus) wire themselves in.
type RunHooks struct {
	Clock    *simtime.Clock
	Ring     *trace.Ring
	Registry *obs.Registry
	Profiler *obs.Profiler
	Causal   *causal.Tracer
	AppNames []string
	Workers  int
}

// ObserveOpts tunes ObservedRunOpts.
type ObserveOpts struct {
	// Profile attaches the occupancy profiler.
	Profile bool
	// Causal attaches the per-request causal tracer in episode mode (the
	// workload has no request injection path; every wake-to-park episode is
	// a journey).
	Causal bool
	// PreRun, when non-nil, runs just before the virtual run starts.
	PreRun func(h RunHooks)
}

// ObservedRun executes a preemption-heavy two-application workload (a
// latency-critical app against a batch co-runner on a small partition) with
// the tracer, the metrics registry and — when profile is set — the occupancy
// profiler attached, then stitches the trace into spans.
func ObservedRun(seed uint64, dur simtime.Duration, profile bool) *Observed {
	return ObservedRunOpts(seed, dur, ObserveOpts{Profile: profile})
}

// ObservedRunOpts is ObservedRun with an attach hook.
func ObservedRunOpts(seed uint64, dur simtime.Duration, opts ObserveOpts) *Observed {
	m := newMachine()
	tr := trace.New(1 << 16)
	e := core.New(core.Config{
		Machine: m, Trace: tr, Seed: seed,
		CPUs: cpuList(4), Mode: core.PerCPU,
		Policy:    rr.New(25 * simtime.Microsecond),
		TimerMode: core.TimerLAPIC, TimerHz: SkyloftTimerHz,
		Costs: core.SkyloftCosts(cycles.Default()),
	})
	defer e.Shutdown()

	reg := &obs.Registry{}
	e.RegisterMetrics(reg)
	var prof *obs.Profiler
	if opts.Profile {
		prof = e.NewOccupancyProfiler(0)
		prof.Start()
	}
	var ctr *causal.Tracer
	if opts.Causal {
		ctr = causal.New(causal.Config{
			Episodes:   true,
			TickPeriod: simtime.Second / SkyloftTimerHz,
		})
		ctr.SetDeliveryProber(e)
	}

	lc := e.NewApp("lc")
	batch := e.NewApp("batch")
	for i := 0; i < 8; i++ {
		lc.Start("lc-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(2+env.Rand().Intn(15)) * simtime.Microsecond)
				env.Sleep(simtime.Duration(5+env.Rand().Intn(40)) * simtime.Microsecond)
			}
		})
	}
	for i := 0; i < 4; i++ {
		batch.Start("batch-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(50+env.Rand().Intn(200)) * simtime.Microsecond)
				if env.Rand().Bernoulli(0.2) {
					env.Sleep(simtime.Duration(10+env.Rand().Intn(50)) * simtime.Microsecond)
				} else if env.Rand().Bernoulli(0.3) {
					env.Yield()
				}
			}
		})
	}
	if opts.PreRun != nil {
		opts.PreRun(RunHooks{
			Clock:    m.Clock,
			Ring:     tr,
			Registry: reg,
			Profiler: prof,
			Causal:   ctr,
			AppNames: e.AppNames(),
			Workers:  e.Workers(),
		})
	}
	if ctr != nil {
		// After PreRun: a live bus attached there reads the tracer's
		// summaries at window close, so its tap must run first.
		ctr.Attach(tr)
	}
	e.Run(simtime.Time(dur))

	events := tr.Events()
	return &Observed{
		Ring:     tr,
		Events:   events,
		Spans:    obs.BuildSpans(events),
		AppNames: e.AppNames(),
		Registry: reg,
		Profiler: prof,
		Causal:   ctr,
		Workers:  e.Workers(),
	}
}
