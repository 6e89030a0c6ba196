package core

import (
	"testing"

	"skyloft/internal/cycles"
	"skyloft/internal/faults"
	"skyloft/internal/hw"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// TestWatchdogRecoversSilentCore is the straggler regression: one core, no
// timer at all (the degenerate silent core — nothing will ever preempt),
// a long task hogging the core while a short one waits. The watchdog must
// fire exactly once — its polling-mode preemption at the first over-budget
// sweep frees the core, the short task drains, and the requeued long task
// then owns an empty queue, which is idleness, not a wedge. Two same-seed
// runs must produce bit-identical traces (the watchdog is on the virtual
// clock like everything else), and the invariant checker must stay silent
// throughout.
func TestWatchdogRecoversSilentCore(t *testing.T) {
	run := func() (stats HardeningStats, hash uint64, violations uint64) {
		m := hw.NewMachine(hw.DefaultConfig())
		tr := trace.New(1 << 12)
		e := newEngine(t, Config{
			Machine: m, Trace: tr, Seed: 42,
			CPUs: cpus(1), Policy: newTestFIFO(0), TimerMode: TimerNone,
			Harden: true,
		})
		checker := faults.NewChecker(e, 0)
		m.Clock.SetObserver(checker.Check)

		app := e.NewApp("app")
		var longDone, shortDone simtime.Time
		app.Start("long", func(env sched.Env) {
			env.Run(simtime.Millisecond)
			longDone = env.Now()
		})
		app.Start("short", func(env sched.Env) {
			env.Run(50 * simtime.Microsecond)
			shortDone = env.Now()
		})
		e.Run(simtime.Time(2 * simtime.Millisecond))

		if longDone == 0 || shortDone == 0 {
			t.Fatalf("tasks did not complete: long=%v short=%v", longDone, shortDone)
		}
		// Without the watchdog the short task would sit behind the full
		// 1ms run; the polling fallback must free it within about one
		// budget plus one sweep period.
		if shortDone > simtime.Time(500*simtime.Microsecond) {
			t.Fatalf("short task done at %v — watchdog did not free the core", shortDone)
		}
		return e.HardeningStats(), tr.Hash(), checker.Count()
	}

	s1, h1, v1 := run()
	if s1.WatchdogRecoveries != 1 {
		t.Fatalf("watchdog recoveries = %d, want exactly 1", s1.WatchdogRecoveries)
	}
	if v1 != 0 {
		t.Fatalf("invariant checker reported %d violations", v1)
	}
	s2, h2, _ := run()
	if h1 != h2 || s1 != s2 {
		t.Fatalf("same-seed watchdog runs diverged: hash %016x/%016x stats %+v/%+v", h1, h2, s1, s2)
	}
}

// TestPreemptRetryResendsDroppedIPI: centralized mode over the legacy
// posted-interrupt path, with the wire eating the first preemption IPI of
// every assignment. The bounded retry must resend until one lands; without
// it the short task would starve behind the long one's 10ms run.
func TestPreemptRetryResendsDroppedIPI(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	dropped := 0
	m.Hooks = &hw.FaultHooks{IPI: func(from, to int, vec uint8) hw.IPIVerdict {
		if vec == legacyPreemptVector && dropped%2 == 0 {
			dropped++
			return hw.IPIVerdict{Drop: true}
		}
		if vec == legacyPreemptVector {
			dropped++
		}
		return hw.IPIVerdict{}
	}}
	e := newEngine(t, Config{
		Machine: m, CPUs: cpus(2), Mode: Centralized,
		Central: &testCentral{quantum: 30 * simtime.Microsecond}, TimerMode: TimerNone,
		Costs:  ShinjukuCosts(cycles.Default()),
		Harden: true,
	})
	app := e.NewApp("app")
	var shortDone simtime.Time
	app.Start("long", func(env sched.Env) { env.Run(10 * simtime.Millisecond) })
	app.Start("short", func(env sched.Env) {
		env.Run(10 * simtime.Microsecond)
		shortDone = env.Now()
	})
	e.Run(simtime.Second)
	if shortDone == 0 {
		t.Fatal("short task did not complete")
	}
	if shortDone > simtime.Millisecond {
		t.Fatalf("short task done at %v — retries did not recover the dropped IPIs", shortDone)
	}
	if e.HardeningStats().IPIRetries == 0 {
		t.Fatal("no IPI retries recorded despite dropped preemption IPIs")
	}
	if e.Preemptions() == 0 {
		t.Fatal("no preemptions landed")
	}
}
