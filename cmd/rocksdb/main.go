// Command rocksdb regenerates Fig. 8b (§5.3): the LSM key-value server
// under the bimodal workload (50% GET at 0.95 µs, 50% SCAN at 591 µs) on
// Skyloft's preemptive work-stealing policy with quanta of 5/15/30 µs, the
// utimer variant (a dedicated software-timer core, 13 workers), and
// Shenango. The metric is the 99.9th-percentile slowdown; the paper's
// headline is Skyloft sustaining 1.9× Shenango's load at a 50× slowdown
// SLO with a 5 µs quantum.
//
// Usage:
//
//	rocksdb [-dur 300ms] [-seed 1] [-csv]
package main

import (
	"flag"
	"fmt"
	"time"

	"skyloft/internal/apps/server"
	"skyloft/internal/bench"
	"skyloft/internal/simtime"
)

func main() {
	dur := flag.Duration("dur", 300*time.Millisecond, "measurement window (virtual)")
	seed := flag.Uint64("seed", 1, "random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	flag.Parse()

	capacity := bench.Capacity(bench.Fig8bWorkers, server.RocksDBClasses())
	var loads []float64
	for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95} {
		loads = append(loads, f*capacity)
	}
	fmt.Printf("# RocksDB capacity with %d workers: %.1f krps\n\n", bench.Fig8bWorkers, capacity/1000)

	t := bench.Fig8b(loads, simtime.Duration(dur.Nanoseconds()), *seed)
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.Render())
	}

	// Headline: max sustained load at the 50× slowdown SLO.
	const slo = 50.0
	best := t.MaxXWithin(slo)
	sh := best["shenango"]
	fmt.Printf("\n# max load with p99.9 slowdown <= %.0fx (krps, relative to shenango):\n", slo)
	for _, col := range t.Columns {
		rel := 0.0
		if sh > 0 {
			rel = best[col] / sh
		}
		fmt.Printf("#   %-20s %8.1f  (%.2fx)\n", col, best[col], rel)
	}
}
