// Command schbench regenerates Fig. 5 and Fig. 6 (§5.1): schbench wakeup
// latency under the Linux schedulers (SCHED_RR, CFS default/tuned, EEVDF
// default/tuned) and the Skyloft per-CPU policies (RR, CFS, EEVDF) driven
// by 100 kHz user-space timer interrupts; plus the RR time-slice sweep.
//
// The observability flags run an instrumented companion workload alongside:
// -trace-out exports it as Perfetto JSON, -metrics-out snapshots the metrics
// registry, -doctor-out writes the sched-doctor diagnosis as JSON, and
// -occupancy prints per-core busy/idle/kernel shares, and -causal-out
// writes the causal tracer's slow-episode exemplar document for
// cmd/skyloft-explain. Every *-out flag accepts "-" for stdout. The live
// flags (-live-out, -live-window, -live-http, -flight-dir) stream that
// companion run's telemetry while it executes — see cmd/skyloft-top.
//
// Usage:
//
//	schbench [-fig 5|6] [-reqs N] [-seed S] [-csv] \
//	         [-trace-out trace.json] [-metrics-out metrics.json] \
//	         [-doctor-out doctor.json] [-occupancy] \
//	         [-live-out live.ndjson] [-live-http 127.0.0.1:7077]
package main

import (
	"flag"
	"fmt"
	"os"

	"skyloft/internal/bench"
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

func main() {
	fig := flag.Int("fig", 5, "figure to regenerate (5 or 6)")
	reqs := flag.Int("reqs", 50, "requests per worker")
	seed := flag.Uint64("seed", 1, "random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
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

	workers := []int{8, 16, 24, 32, 40, 48, 56, 64}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.Render())
		}
		fmt.Println()
	}

	switch *fig {
	case 5:
		p99, p50 := bench.Fig5(workers, *reqs, *seed)
		emit(p99)
		emit(p50)
	case 6:
		slices := []simtime.Duration{
			25 * simtime.Microsecond,
			50 * simtime.Microsecond,
			100 * simtime.Microsecond,
			200 * simtime.Microsecond,
			400 * simtime.Microsecond,
		}
		emit(bench.Fig6(workers, slices, *reqs, *seed))
	default:
		fmt.Println("unknown figure; use -fig 5 or -fig 6")
	}

	if of.Active() {
		if _, err := bench.EmitObserved(of, os.Stdout, *seed, 20*simtime.Millisecond); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
