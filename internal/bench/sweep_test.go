package bench

import (
	"reflect"
	"testing"

	"skyloft/internal/apps/server"
	"skyloft/internal/simtime"
)

func TestSweepPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got := Sweep(items, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestSweepSerialFallback(t *testing.T) {
	SetSweepWorkers(1)
	defer SetSweepWorkers(0)
	order := []int{}
	Sweep([]int{3, 1, 2}, func(i int) int {
		order = append(order, i) // safe: serial path runs on this goroutine
		return i
	})
	if !reflect.DeepEqual(order, []int{3, 1, 2}) {
		t.Fatalf("serial sweep ran out of order: %v", order)
	}
}

// A parallel sweep must emit exactly the rows a serial one does: every trial
// is seeded and self-contained, and results are assembled in input order.
func TestFig7aParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial sweep")
	}
	cap7 := Capacity(Fig7Workers, server.DispersiveClasses())
	loads := []float64{0.3 * cap7, 0.8 * cap7}
	dur := 20 * simtime.Millisecond

	SetSweepWorkers(1)
	serial := Fig7a(loads, 30*simtime.Microsecond, dur, 7)
	SetSweepWorkers(0)
	parallel := Fig7a(loads, 30*simtime.Microsecond, dur, 7)

	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Fatalf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v",
			serial.Rows, parallel.Rows)
	}
}

// BenchmarkFig7Sweep is the end-to-end experiment benchmark: one reduced
// Fig. 7a load sweep (4 load points × 4 systems) per iteration, run through
// the parallel sweep runner. BenchmarkFig7SweepSerial is the same sweep
// pinned to one worker — the before/after pair for the wall-clock speedup
// recorded in EXPERIMENTS.md.
func benchFig7Sweep(b *testing.B, workers int) {
	b.Helper()
	SetSweepWorkers(workers)
	defer SetSweepWorkers(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig7Sweep()
	}
}

// fig7Sweep is one reduced Fig. 7a sweep: 4 load points × 4 systems.
func fig7Sweep() {
	cap7 := Capacity(Fig7Workers, server.DispersiveClasses())
	loads := []float64{0.3 * cap7, 0.6 * cap7, 0.85 * cap7, 0.95 * cap7}
	Fig7a(loads, 30*simtime.Microsecond, 50*simtime.Millisecond, 1)
}

// fig7SweepBudget caps what one reduced Fig. 7a sweep may allocate. The
// sweep allocates about 18 MB; a closure per preempt IRQ (Shinjuku's
// posted-interrupt preemption takes that path) adds 16 MB and trips it.
const fig7SweepBudget = 24 << 20

// TestFig7SweepAllocs runs BenchmarkFig7Sweep's sweep once, serially, and
// checks its heap allocation against fig7SweepBudget.
func TestFig7SweepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-trial sweep")
	}
	SetSweepWorkers(1)
	defer SetSweepWorkers(0)
	n := leastAlloc(1, fig7Sweep)
	t.Logf("Fig. 7a sweep: %d bytes", n)
	if n > fig7SweepBudget {
		t.Fatalf("the Fig. 7a sweep allocated %d bytes, budget %d", n, fig7SweepBudget)
	}
}

func BenchmarkFig7Sweep(b *testing.B)       { benchFig7Sweep(b, 0) }
func BenchmarkFig7SweepSerial(b *testing.B) { benchFig7Sweep(b, 1) }
