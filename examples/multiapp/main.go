// Multi-application scheduling under oversubscription: the §3.3/§5.2
// story with the DESIGN.md §15 lease protocol underneath. A
// latency-critical application shares four workers with a best-effort
// antagonist whose bursts run far past the lease grace window. Every
// core the antagonist gets is an explicit revocable lease; when the LC
// queue congests, the allocator requests the core back and the lease
// manager escalates — cooperative preempt, exponential re-notification,
// forced eviction — within a provable bound.
//
// To show the bound is real and not just the happy path, a fault plan
// suppresses 90% of user-IPI notifications during the middle of the run
// (an antagonist that "drops" its preempts). The example exits non-zero
// unless forced revocation actually engaged, every reclaim met the
// bound, and the cross-app invariants held at every event.
//
// Run with:
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"os"

	"skyloft/internal/core"
	"skyloft/internal/faults"
	"skyloft/internal/hw"
	"skyloft/internal/lease"
	"skyloft/internal/policy/shinjuku"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

func main() {
	machine := hw.NewMachine(hw.DefaultConfig())
	tr := trace.New(1 << 16)

	engine := core.New(core.Config{
		Machine: machine,
		Trace:   tr,
		Seed:    1,
		CPUs:    []int{0, 1, 2, 3, 4}, // CPU 0 = dispatcher, 4 workers
		Mode:    core.Centralized,
		Central: shinjuku.New(25 * simtime.Microsecond),
		Costs:   core.SkyloftCosts(machine.Cost),
		CoreAlloc: &core.CoreAllocConfig{
			CongestionThreshold: 20 * simtime.Microsecond,
			MaxBECores:          2,
		},
		Lease:     true,
		TimerMode: core.TimerNone,
		Harden:    true,
	})
	defer engine.Shutdown()

	// The borrower-stall antagonist: from 0.5ms to 3ms, 90% of SENDUIPI
	// notifications vanish, so cooperative reclaim mostly fails and the
	// lease manager must escalate to forced revocation.
	plan := &faults.Plan{Name: "borrower-stall", Seed: 1, Rules: []faults.Rule{
		{Kind: faults.UINTRSuppress, Core: -1,
			From:  simtime.Time(500 * simtime.Microsecond),
			Until: simtime.Time(3 * simtime.Millisecond), Rate: 0.9},
	}}
	injector, err := faults.NewInjector(plan, machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "multiapp:", err)
		os.Exit(1)
	}
	injector.Attach(tr)

	// Cross-app invariants — runnable accounting, grant uniqueness, work
	// conservation, and the lease/kmod binding agreement — audited at
	// every event-core transition.
	checker := faults.NewChecker(engine, simtime.Millisecond)
	checker.AttachLease(engine.LeaseManager())
	machine.Clock.SetObserver(checker.Check)

	lcApp := engine.NewApp("latency-critical")
	antagonist := engine.NewApp("antagonist")

	// LC load needs ~2.5 of the 4 workers on average: whenever the
	// antagonist holds leased cores, the central queue congests and the
	// allocator files reclaim requests.
	for i := 0; i < 8; i++ {
		lcApp.Start("lc-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(5+env.Rand().Intn(16)) * simtime.Microsecond)
				env.Sleep(simtime.Duration(10+env.Rand().Intn(30)) * simtime.Microsecond)
			}
		})
	}
	// Antagonist bursts outlive the 50µs grace window severalfold: a
	// reclaim whose notification is suppressed cannot end cooperatively.
	for i := 0; i < 3; i++ {
		antagonist.Start("antagonist-w", func(env sched.Env) {
			for {
				env.Run(simtime.Duration(80+env.Rand().Intn(220)) * simtime.Microsecond)
				if env.Rand().Bernoulli(0.1) {
					env.Sleep(simtime.Duration(5+env.Rand().Intn(20)) * simtime.Microsecond)
				}
			}
		})
	}

	engine.Run(simtime.Time(4 * simtime.Millisecond))

	mgr := engine.LeaseManager()
	hist := mgr.ReclaimHist()
	bound := lease.ReclaimBound
	fmt.Printf("leases:   %d granted, %d reclaimed (%d cooperative, %d forced, %d evictions)\n",
		mgr.Grants(), mgr.Reclaims(), mgr.CooperativeReturns(), mgr.ForcedRevocations(), mgr.Evictions())
	fmt.Printf("reclaim:  p50=%.1fµs p99=%.1fµs max=%.1fµs (bound %v)\n",
		hist.P50().Micros(), hist.P99().Micros(), hist.Max().Micros(), bound)
	fmt.Printf("faults:   %d notifications suppressed; invariants: %d checks, %d violations\n",
		injector.Counters().Total(), checker.Checks(), checker.Count())

	failed := false
	if mgr.ForcedRevocations() == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: forced revocation never engaged — the borrower stall did not bite")
		failed = true
	}
	if mgr.DeadlineMisses() > 0 || hist.P99() > bound {
		fmt.Fprintf(os.Stderr, "FAIL: reclaim latency escaped the bound (%d misses, p99 %v > %v)\n",
			mgr.DeadlineMisses(), hist.P99(), bound)
		failed = true
	}
	if n := checker.Count(); n > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d invariant violations: %s\n", n, checker.Violations()[0])
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("\nEven with 90% of preempt notifications suppressed, every reclaim")
	fmt.Println("completed inside the configured bound — cooperation is an optimisation,")
	fmt.Println("never a correctness requirement.")
}
