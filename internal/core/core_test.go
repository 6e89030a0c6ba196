package core

import (
	"testing"

	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/policy"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
)

// testFIFO is a minimal per-CPU policy for engine tests (the real policies
// live in internal/policy and have their own tests).
type testFIFO struct {
	quantum simtime.Duration
	rq      []policy.Deque
	seen    map[*sched.Thread]simtime.Duration
	placer  policy.Placer
}

func newTestFIFO(q simtime.Duration) *testFIFO {
	return &testFIFO{quantum: q, seen: map[*sched.Thread]simtime.Duration{}}
}

func (p *testFIFO) Name() string                    { return "test-fifo" }
func (p *testFIFO) SchedInit(n int)                 { p.rq = make([]policy.Deque, n) }
func (p *testFIFO) TaskInit(t *sched.Thread)        {}
func (p *testFIFO) TaskTerminate(t *sched.Thread)   {}
func (p *testFIFO) SchedBalance(int) *sched.Thread  { return nil }
func (p *testFIFO) TaskDequeue(c int) *sched.Thread { return p.rq[c].PopFront() }
func (p *testFIFO) PickCPU(t *sched.Thread, idle []bool) int {
	return p.placer.Pick(t, idle)
}
func (p *testFIFO) TaskEnqueue(c int, t *sched.Thread, f EnqueueFlags) {
	p.seen[t] = t.CPUTime
	p.rq[c].PushBack(t)
}
func (p *testFIFO) SchedTimerTick(c int, t *sched.Thread, ran simtime.Duration) bool {
	if p.quantum <= 0 {
		return false
	}
	return t.CPUTime-p.seen[t] >= p.quantum && p.rq[c].Len() > 0
}

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Machine == nil {
		cfg.Machine = hw.NewMachine(hw.DefaultConfig())
	}
	if cfg.Costs.Switch == 0 && cfg.Costs.Preempt.Name == "" {
		cfg.Costs = SkyloftCosts(cycles.Default())
	}
	e := New(cfg)
	t.Cleanup(e.Shutdown)
	return e
}

func cpus(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPerCPURunToCompletion(t *testing.T) {
	e := newEngine(t, Config{CPUs: cpus(2), Policy: newTestFIFO(0), TimerMode: TimerNone})
	app := e.NewApp("app")
	var doneAt simtime.Time
	app.Start("main", func(env sched.Env) {
		env.Run(100 * simtime.Microsecond)
		doneAt = env.Now()
	})
	e.Run(simtime.Second)
	if doneAt < 100*simtime.Microsecond || doneAt > 101*simtime.Microsecond {
		t.Fatalf("completed at %v, want ~100us (uthread overheads are tiny)", doneAt)
	}
}

func TestUserTimerPreemption(t *testing.T) {
	// Two spinners on one core with a 20 µs quantum and a 100 kHz user
	// timer must interleave at ~20 µs granularity.
	e := newEngine(t, Config{
		CPUs: cpus(1), Policy: newTestFIFO(20 * simtime.Microsecond),
		TimerMode: TimerLAPIC, TimerHz: 100_000,
	})
	app := e.NewApp("app")
	var first, second *sched.Thread
	first = app.Start("a", func(env sched.Env) { env.Run(simtime.Millisecond) })
	second = app.Start("b", func(env sched.Env) { env.Run(simtime.Millisecond) })
	e.Run(500 * simtime.Microsecond)
	if e.Preemptions() < 10 {
		t.Fatalf("only %d preemptions in 500us with 20us quantum", e.Preemptions())
	}
	// Both made progress despite 1ms run requests — µs-scale sharing.
	if first.CPUTime == 0 || second.CPUTime == 0 {
		t.Fatalf("no sharing: a=%v b=%v", first.CPUTime, second.CPUTime)
	}
	ratio := float64(first.CPUTime) / float64(second.CPUTime)
	if ratio < 0.7 || ratio > 1.5 {
		t.Fatalf("unfair sharing: a=%v b=%v", first.CPUTime, second.CPUTime)
	}
}

func TestNoTimerNoPreemption(t *testing.T) {
	e := newEngine(t, Config{CPUs: cpus(1), Policy: newTestFIFO(20 * simtime.Microsecond), TimerMode: TimerNone})
	app := e.NewApp("app")
	var order []string
	app.Start("long", func(env sched.Env) {
		env.Run(500 * simtime.Microsecond)
		order = append(order, "long")
	})
	app.Start("short", func(env sched.Env) {
		env.Run(10 * simtime.Microsecond)
		order = append(order, "short")
	})
	e.Run(simtime.Second)
	if len(order) != 2 || order[0] != "long" {
		t.Fatalf("cooperative FIFO violated: %v (head-of-line blocking expected)", order)
	}
}

func TestWakeupLatencyMicroseconds(t *testing.T) {
	// Skyloft's headline: with a 100 kHz user timer, wakeup latencies on
	// an oversubscribed core are tens of µs, not milliseconds.
	e := newEngine(t, Config{
		CPUs: cpus(1), Policy: newTestFIFO(50 * simtime.Microsecond),
		TimerMode: TimerLAPIC, TimerHz: 100_000,
	})
	app := e.NewApp("app")
	var workers []*sched.Thread
	for i := 0; i < 3; i++ {
		w := app.Start("worker", func(env sched.Env) {
			for {
				env.Block()
				env.Run(100 * simtime.Microsecond)
			}
		})
		w.RecordWakeup = true
		workers = append(workers, w)
	}
	app.Start("message", func(env sched.Env) {
		for i := 0; i < 300; i++ {
			for _, w := range workers {
				env.Wake(w)
			}
			env.Sleep(400 * simtime.Microsecond)
		}
	})
	e.Run(200 * simtime.Millisecond)
	if e.WakeupHist.Count() < 300 {
		t.Fatalf("too few wakeups: %d", e.WakeupHist.Count())
	}
	p99 := e.WakeupHist.P99()
	if p99 > 500*simtime.Microsecond {
		t.Fatalf("p99 wakeup %v — Skyloft should be well under 500us here", p99)
	}
}

// TestAppRegistry checks the engine's app registry: apps get dense IDs in
// registration order, and each app holds one kernel thread per managed
// core — the first app's bound and active, later apps' parked — while a
// core the engine does not manage has none.
func TestAppRegistry(t *testing.T) {
	e := newEngine(t, Config{CPUs: []int{1, 2}, Policy: newTestFIFO(0), TimerMode: TimerNone})
	lc := e.NewApp("memcached")
	be := e.NewApp("batch")
	if lc.ID != 0 || be.ID != 1 {
		t.Fatalf("registry ids wrong: %d %d", lc.ID, be.ID)
	}
	mod := e.KernelModule()
	for _, core := range []int{1, 2} {
		if kt := mod.ActiveOn(core); kt == nil || kt.TID != lc.KThreadTID(core) || kt.App != lc.ID {
			t.Fatalf("core %d: active kthread %v, want app 0's tid %d", core, kt, lc.KThreadTID(core))
		}
		if tid := be.KThreadTID(core); tid == 0 || tid == lc.KThreadTID(core) {
			t.Fatalf("core %d: app 1 kthread tid %d", core, tid)
		}
	}
	if lc.KThreadTID(0) != 0 || be.KThreadTID(0) != 0 {
		t.Fatal("unmanaged core 0 has a kernel thread")
	}
}

func TestMultiAppSwitchingCostsAndBindingRule(t *testing.T) {
	e := newEngine(t, Config{CPUs: cpus(1), Policy: newTestFIFO(0), TimerMode: TimerNone})
	lc := e.NewApp("lc")
	be := e.NewApp("be")
	var order []int
	mk := func(app int) sched.Func {
		return func(env sched.Env) {
			for i := 0; i < 3; i++ {
				env.Run(10 * simtime.Microsecond)
				env.Yield()
				order = append(order, app)
			}
		}
	}
	lc.Start("lc-thread", mk(0))
	be.Start("be-thread", mk(1))
	e.Run(simtime.Second)
	if len(order) != 6 {
		t.Fatalf("threads did not finish: %v", order)
	}
	if e.KernelModule().Switches() < 2 {
		t.Fatalf("expected inter-app switches, got %d", e.KernelModule().Switches())
	}
	// The binding rule was enforced throughout (kmod panics otherwise);
	// verify final state: exactly one active kthread on the core.
	if e.KernelModule().ActiveOn(0) == nil {
		t.Fatal("no active kthread on core 0")
	}
	if e.AppCPU(0) == 0 || e.AppCPU(1) == 0 {
		t.Fatal("per-app CPU accounting missing")
	}
}

func TestSleepAndWakeTiming(t *testing.T) {
	e := newEngine(t, Config{CPUs: cpus(1), Policy: newTestFIFO(0), TimerMode: TimerNone})
	app := e.NewApp("app")
	var at simtime.Time
	app.Start("sleeper", func(env sched.Env) {
		env.Sleep(123 * simtime.Microsecond)
		at = env.Now()
	})
	e.Run(simtime.Second)
	if at < 123*simtime.Microsecond || at > 124*simtime.Microsecond {
		t.Fatalf("woke at %v, want ~123us", at)
	}
}

func TestSpawnAndSync(t *testing.T) {
	e := newEngine(t, Config{CPUs: cpus(4), Policy: newTestFIFO(0), TimerMode: TimerNone})
	app := e.NewApp("app")
	var mu sched.Mutex
	count := 0
	var wg sched.WaitGroup
	app.Start("main", func(env sched.Env) {
		wg.Add(env, 8)
		for i := 0; i < 8; i++ {
			env.Spawn("child", func(env sched.Env) {
				mu.Lock(env)
				env.Run(5 * simtime.Microsecond)
				count++
				mu.Unlock(env)
				wg.Done(env)
			})
		}
		wg.Wait(env)
	})
	e.Run(simtime.Second)
	if count != 8 {
		t.Fatalf("count = %d, want 8", count)
	}
}

func TestCentralizedDispatch(t *testing.T) {
	e := newEngine(t, Config{
		CPUs: cpus(5), Mode: Centralized,
		Central: &testCentral{quantum: 0}, TimerMode: TimerNone,
	})
	app := e.NewApp("app")
	done := 0
	for i := 0; i < 20; i++ {
		app.Start("req", func(env sched.Env) {
			env.Run(10 * simtime.Microsecond)
			done++
		})
	}
	e.Run(simtime.Second)
	if done != 20 {
		t.Fatalf("completed %d/20 requests", done)
	}
	// 20 × 10 µs across 4 workers ≈ 50 µs + dispatch overheads.
	if now := e.Machine().Now(); now > 200*simtime.Microsecond {
		t.Fatalf("centralized dispatch too slow: finished at %v", now)
	}
}

type testCentral struct {
	quantum simtime.Duration
	q       []*sched.Thread
}

func (p *testCentral) Name() string { return "test-central" }
func (p *testCentral) Enqueue(t *sched.Thread, f EnqueueFlags) {
	p.q = append(p.q, t)
}
func (p *testCentral) Dequeue() *sched.Thread {
	if len(p.q) == 0 {
		return nil
	}
	t := p.q[0]
	p.q = p.q[1:]
	return t
}
func (p *testCentral) Len() int { return len(p.q) }
func (p *testCentral) OldestWait(now simtime.Time) simtime.Duration {
	if len(p.q) == 0 {
		return 0
	}
	return now - p.q[0].EnqueuedAt
}
func (p *testCentral) Quantum() simtime.Duration { return p.quantum }

func TestCentralizedPreemptionByUserIPI(t *testing.T) {
	e := newEngine(t, Config{
		CPUs: cpus(2), Mode: Centralized,
		Central: &testCentral{quantum: 30 * simtime.Microsecond}, TimerMode: TimerNone,
	})
	app := e.NewApp("app")
	var shortDone, longDone simtime.Time
	app.Start("long", func(env sched.Env) {
		env.Run(10 * simtime.Millisecond)
		longDone = env.Now()
	})
	app.Start("short", func(env sched.Env) {
		env.Run(10 * simtime.Microsecond)
		shortDone = env.Now()
	})
	e.Run(simtime.Second)
	if shortDone == 0 || longDone == 0 {
		t.Fatal("requests did not complete")
	}
	// Without preemption the short request would wait 10ms behind the
	// long one on the single worker; with a 30 µs quantum it must finish
	// in well under a millisecond.
	if shortDone > simtime.Millisecond {
		t.Fatalf("short request done at %v — preemption not working", shortDone)
	}
	if e.Preemptions() == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestCentralizedCoreAllocation(t *testing.T) {
	e := newEngine(t, Config{
		CPUs: cpus(3), Mode: Centralized,
		Central:   &testCentral{quantum: 30 * simtime.Microsecond},
		TimerMode: TimerNone,
		CoreAlloc: &CoreAllocConfig{
			CongestionThreshold: 10 * simtime.Microsecond,
		},
	})
	lc := e.NewApp("lc")
	be := e.NewApp("batch")
	// BE app: two infinite batch threads.
	for i := 0; i < 2; i++ {
		be.Start("batch", func(env sched.Env) {
			for {
				env.Run(100 * simtime.Microsecond)
			}
		})
	}
	// LC app: sporadic requests.
	reqDone := 0
	lc.Start("lcgen", func(env sched.Env) {
		for i := 0; i < 50; i++ {
			env.Spawn("req", func(env sched.Env) {
				env.Run(20 * simtime.Microsecond)
				reqDone++
			})
			env.Sleep(200 * simtime.Microsecond)
		}
	})
	e.Run(20 * simtime.Millisecond)
	if reqDone < 45 {
		t.Fatalf("only %d/50 LC requests completed alongside batch work", reqDone)
	}
	if e.BEGrants() == 0 {
		t.Fatal("BE app never granted a core")
	}
	if e.AppCPU(1) == 0 {
		t.Fatal("BE app got no CPU time")
	}
	// BE must not have monopolised: LC demand ≈ 50×20us = 1ms of 40ms
	// core-time. With 2 workers the allocator reserves one for the LC app
	// (MaxBECores defaults to workers-1), so BE's ceiling is ~50%.
	total := 2 * 20 * simtime.Millisecond
	share := float64(e.AppCPU(1)) / float64(total)
	if share < 0.40 || share > 0.55 {
		t.Fatalf("BE share %.2f — want ~0.5 (one granted core)", share)
	}
}

func TestUtimerEmulation(t *testing.T) {
	// TimerUtimer: CPUs[0] sends user IPIs every quantum; workers treat
	// them as ticks.
	e := newEngine(t, Config{
		CPUs: cpus(3), Policy: newTestFIFO(10 * simtime.Microsecond),
		TimerMode: TimerUtimer, UtimerQuantum: 10 * simtime.Microsecond,
	})
	app := e.NewApp("app")
	a := app.Start("a", func(env sched.Env) { env.Run(simtime.Millisecond) })
	b := app.Start("b", func(env sched.Env) { env.Run(simtime.Millisecond) })
	// Force both onto one worker: 2 workers exist; spawn two more hogs so
	// both workers are busy and the queue rotates.
	_ = a
	_ = b
	app.Start("c", func(env sched.Env) { env.Run(simtime.Millisecond) })
	e.Run(300 * simtime.Microsecond)
	if e.Preemptions() == 0 {
		t.Fatal("utimer produced no preemptions")
	}
	if e.Workers() != 2 {
		t.Fatalf("utimer mode should leave 2 workers, got %d", e.Workers())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (simtime.Time, uint64, simtime.Duration) {
		m := hw.NewMachine(hw.DefaultConfig())
		e := New(Config{
			Machine: m, CPUs: cpus(4), Policy: newTestFIFO(25 * simtime.Microsecond),
			TimerMode: TimerLAPIC, TimerHz: 100_000,
			Costs: SkyloftCosts(cycles.Default()), Seed: 7,
		})
		defer e.Shutdown()
		app := e.NewApp("app")
		var total simtime.Duration
		for i := 0; i < 10; i++ {
			app.Start("w", func(env sched.Env) {
				for j := 0; j < 20; j++ {
					env.Run(simtime.Duration(10+env.Rand().Intn(90)) * simtime.Microsecond)
					env.Yield()
				}
				total += env.Now()
			})
		}
		e.Run(50 * simtime.Millisecond)
		return m.Now(), m.Clock.Dispatched(), total
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("replay diverged: (%v,%d,%v) vs (%v,%d,%v)", a1, b1, c1, a2, b2, c2)
	}
}

func TestWorkConservation(t *testing.T) {
	// With more tasks than cores and stealing disabled, every enqueued
	// task still completes because wakeups prefer idle cores.
	e := newEngine(t, Config{CPUs: cpus(4), Policy: newTestFIFO(0), TimerMode: TimerNone})
	app := e.NewApp("app")
	done := 0
	for i := 0; i < 100; i++ {
		app.Start("task", func(env sched.Env) {
			env.Run(50 * simtime.Microsecond)
			done++
		})
	}
	e.Run(simtime.Second)
	if done != 100 {
		t.Fatalf("%d/100 tasks completed", done)
	}
	// 100×50us over 4 cores ≈ 1.25ms minimum.
	if now := e.Machine().Now(); now > 3*simtime.Millisecond {
		t.Fatalf("poor work conservation: took %v", now)
	}
}
