// Command synthetic regenerates Fig. 7 (§5.2): the dispersive synthetic
// workload (99.5% × 4 µs, 0.5% × 10 ms) on centralized schedulers —
// Skyloft-Shinjuku, the original Shinjuku, ghOSt-Shinjuku, and the
// non-preemptive Linux CFS worker pool — alone (7a) and co-located with a
// best-effort batch application (7b latency, 7c CPU share). It also prints
// the paper's headline ratios (max throughput under an SLO).
//
// Usage:
//
//	synthetic [-fig 7a|7b|7c|all] [-quantum 30us] [-dur 300ms] [-csv]
package main

import (
	"flag"
	"fmt"
	"time"

	"skyloft/internal/bench"
	"skyloft/internal/loadgen"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"

	"skyloft/internal/apps/server"
)

func main() {
	fig := flag.String("fig", "all", "figure: 7a, 7b, 7c, quantum, or all")
	quantum := flag.Duration("quantum", 30*time.Microsecond, "preemption quantum")
	dur := flag.Duration("dur", 300*time.Millisecond, "measurement window (virtual)")
	seed := flag.Uint64("seed", 1, "random seed")
	par := flag.Int("par", 0, "max parallel trials (0 = GOMAXPROCS, 1 = serial)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()
	bench.SetSweepWorkers(*par)

	q := simtime.Duration(quantum.Nanoseconds())
	d := simtime.Duration(dur.Nanoseconds())

	capacity := bench.Capacity(bench.Fig7Workers, server.DispersiveClasses())
	var loads []float64
	for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0} {
		loads = append(loads, f*capacity)
	}
	fmt.Printf("# capacity with %d workers: %.1f krps (mean service %v)\n\n",
		bench.Fig7Workers, capacity/1000, loadgen.MeanService(server.DispersiveClasses()))

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.Render())
		}
		fmt.Println()
	}

	if *fig == "7a" || *fig == "all" {
		t := bench.Fig7a(loads, q, d, *seed)
		emit(t)
		printSLOSummary(t)
	}
	if *fig == "7b" || *fig == "7c" || *fig == "all" {
		lat, share := bench.Fig7bc(loads, q, d, *seed)
		if *fig != "7c" {
			emit(lat)
		}
		if *fig != "7b" {
			emit(share)
		}
	}
	if *fig == "quantum" {
		// Quantum sensitivity (the paper's 15/30/50 µs comparison).
		for _, qq := range []simtime.Duration{15 * simtime.Microsecond, 30 * simtime.Microsecond, 50 * simtime.Microsecond} {
			p := bench.RunSynthetic(bench.SynthConfig{
				System: bench.SynthSkyloft, Quantum: qq, Rate: 0.9 * capacity,
				Duration: d, Seed: *seed,
			})
			fmt.Printf("skyloft quantum=%v @90%%: p99=%.1fus tput=%.0f\n", qq, p.P99, p.Throughput)
		}
	}
}

// printSLOSummary derives the paper's headline comparison: maximum
// throughput with p99 under a 200 µs SLO, relative to Skyloft.
func printSLOSummary(t *stats.Table) {
	const slo = 200.0 // µs
	best := t.MaxXWithin(slo)
	sky := best["skyloft"]
	fmt.Printf("# max throughput with p99 <= %.0fus (krps, relative to skyloft):\n", slo)
	for _, col := range t.Columns {
		rel := 0.0
		if sky > 0 {
			rel = best[col] / sky
		}
		fmt.Printf("#   %-12s %8.1f  (%.3fx)\n", col, best[col], rel)
	}
	fmt.Println()
}
