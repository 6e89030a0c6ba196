package bench

import (
	"fmt"
	"runtime"
	"testing"

	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/simtime"
)

// The request handlers build keys without fmt; the keys must be exactly the
// ones fmt would build, padded or not, at the edges of every range the
// handlers draw from and past the padding width.
func TestKeyNameMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 18999, 19499, 19500, 99999999, 123456789} {
		if got, want := keyName(i, 8), fmt.Sprintf("key-%08d", i); got != want {
			t.Errorf("keyName(%d, 8) = %q, want %q", i, got, want)
		}
		if got, want := keyName(i, 1), fmt.Sprintf("key-%d", i); got != want {
			t.Errorf("keyName(%d, 1) = %q, want %q", i, got, want)
		}
	}
}

// engineBuildBudget caps what building the Fig. 8b Skyloft engine may
// allocate. A build allocates about 90 KiB; a per-engine pool or table
// sized for the largest conceivable run (a 65,536-slot task pool is
// 1.4 MB) trips it.
const engineBuildBudget = 256 << 10

// TestFig8bEngineBuildAllocs builds the engine RunNetApp uses for the
// preemptive Skyloft Fig. 8b variant — machine, engine and one app — and
// checks its heap allocation against engineBuildBudget. The sweep builds
// one engine per load point, so a large per-build allocation is paid on
// every point of every figure.
func TestFig8bEngineBuildAllocs(t *testing.T) {
	build := func() {
		m := newMachine()
		e := core.New(core.Config{
			Machine: m, CPUs: cpuList(Fig8bWorkers), Mode: core.PerCPU,
			Policy:    worksteal.New(5*simtime.Microsecond, 1),
			Costs:     core.SkyloftCosts(cycles.Default()),
			TimerMode: core.TimerLAPIC, TimerHz: int64(simtime.Second / (5 * simtime.Microsecond)), Seed: 1,
		})
		e.NewApp("rocksdb")
		e.Shutdown()
	}
	build() // warm lazily initialised package state
	least := leastAlloc(3, build)
	t.Logf("engine build: %d bytes", least)
	if least > engineBuildBudget {
		t.Fatalf("building the Fig. 8b engine allocated %d bytes, budget %d", least, engineBuildBudget)
	}
}

// leastAlloc reports the fewest heap bytes any of n calls of fn allocated.
// Taking the least of a few calls keeps an allocation by another goroutine
// between two MemStats reads from failing a budget.
func leastAlloc(n int, fn func()) uint64 {
	var least uint64
	for i := 0; i < n; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < least {
			least = b
		}
	}
	return least
}
