package bench

import (
	"fmt"

	"skyloft/internal/faults"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
)

// FlightWindow is the probe's live snapshot width: fine enough that a 4ms
// chaos run publishes ~16 windows and the recorder's default retention
// spans half the run.
const FlightWindow = 250 * simtime.Microsecond

// FlightStarvation is the live starvation threshold the flight probe arms.
// It sits between a clean run's worst wakeup latency (tens of µs on the
// chaos workload) and the parking a straggler core inflicts (up to the
// watchdog budget, 200µs) — so a preset fault plan demonstrably fires the
// recorder while a clean run stays silent.
const FlightStarvation = 120 * simtime.Microsecond

// FlightProbe runs one preset chaos plan with the live telemetry bus and
// the flight recorder attached, wiring faults.InvariantChecker violations
// as a recorder trigger alongside the bus's own pathology detector. The
// obs flags choose the outputs (-flight-dir arms the bundle dump,
// -live-out/-live-http the stream); at least one live flag must be set.
func FlightProbe(name string, seed uint64, dur simtime.Duration, of *obs.Flags) (*ChaosResult, *live.Session, error) {
	if dur <= 0 {
		dur = ChaosDuration
	}
	if of == nil || !of.LiveActive() {
		return nil, nil, fmt.Errorf("bench: flight probe needs a live flag (-flight-dir, -live-out or -live-http)")
	}
	plan, ok := faults.Preset(name, seed)
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown chaos plan %q (have %v)", name, faults.PresetNames())
	}
	var sess *live.Session
	var aerr error
	res, err := chaosRun(name, plan, seed, dur, func(h RunHooks, checker *faults.InvariantChecker) {
		base := live.Config{
			Window:     FlightWindow,
			Starvation: FlightStarvation,
		}
		// Episode-mode causal tracer: chaos workloads have no request
		// injection path, so wake-to-park episodes are the journeys. Its
		// exemplars ride along in snapshots and any dumped bundle.
		ctr := causal.New(causal.Config{
			Episodes:   true,
			TickPeriod: simtime.Second / SkyloftTimerHz,
		})
		sess, aerr = live.FromFlags(of, base, live.Source{
			Clock:    h.Clock,
			Ring:     h.Ring,
			Registry: h.Registry,
			AppNames: h.AppNames,
			Workers:  h.Workers,
			Causal:   ctr,
		})
		ctr.Attach(h.Ring) // after the bus, whose tap must run first
		if sess != nil {
			checker.OnViolation = func(msg string) { sess.Bus.Trigger("invariant: " + msg) }
		}
	})
	if err != nil {
		if sess != nil {
			sess.Close()
		}
		return nil, nil, err
	}
	if aerr != nil {
		return nil, nil, aerr
	}
	return res, sess, nil
}
