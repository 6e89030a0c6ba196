package obs

import (
	"testing"

	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// TestClassifyWait covers every branch of the wait classifier on one core:
// the task becomes ready at 100ns and is dispatched at 1000ns, after the
// listed events (task 9 occupying and releasing the core).
func TestClassifyWait(t *testing.T) {
	const ready, dispatch = simtime.Time(100), simtime.Time(1000)
	occupy := trace.Event{At: 0, Kind: trace.Dispatch, CPU: 0, Task: 9}
	release := func(at simtime.Time, k trace.Kind) trace.Event {
		return trace.Event{At: at, Kind: k, CPU: 0, Task: 9}
	}
	for _, c := range []struct {
		name   string
		events []trace.Event
		tick   simtime.Duration
		want   WaitSplit
	}{
		{"never occupied", nil, 50, WaitSplit{Delivery: 900}},
		{"free before ready", []trace.Event{occupy, release(80, trace.Preempt)}, 50,
			WaitSplit{Delivery: 900}},
		{"freed at ready", []trace.Event{occupy, release(100, trace.Block)}, 50,
			WaitSplit{Delivery: 900}},
		{"occupied, no release seen", []trace.Event{occupy}, 50,
			WaitSplit{Delivery: 900}},
		{"voluntary release", []trace.Event{occupy, release(700, trace.Yield)}, 50,
			WaitSplit{Queue: 600, Delivery: 300}},
		{"exit release", []trace.Event{occupy, release(700, trace.Exit)}, 50,
			WaitSplit{Queue: 600, Delivery: 300}},
		{"preempted within one tick", []trace.Event{occupy, release(130, trace.Preempt)}, 50,
			WaitSplit{TickQuant: 30, Delivery: 870}},
		{"preempted beyond one tick", []trace.Event{occupy, release(700, trace.Preempt)}, 50,
			WaitSplit{TickQuant: 50, PreemptDelay: 550, Delivery: 300}},
		{"preempted, no tick", []trace.Event{occupy, release(700, trace.Preempt)}, 0,
			WaitSplit{PreemptDelay: 600, Delivery: 300}},
		{"preempted, negative tick", []trace.Event{occupy, release(700, trace.Preempt)}, -50,
			WaitSplit{PreemptDelay: 600, Delivery: 300}},
	} {
		var cores CoreReleases
		for _, ev := range c.events {
			cores.Observe(ev)
		}
		got := cores.ClassifyWait(0, ready, dispatch, c.tick)
		if got != c.want {
			t.Errorf("%s: split %+v, want %+v", c.name, got, c.want)
		}
		if sum := got.Queue + got.TickQuant + got.PreemptDelay + got.Delivery; sum != dispatch-ready {
			t.Errorf("%s: parts sum to %v, want the %v wait", c.name, sum, dispatch-ready)
		}
	}
	// Cores are tracked independently; an unseen or negative CPU is a free
	// core.
	var cores CoreReleases
	cores.Observe(occupy)
	cores.Observe(release(700, trace.Yield))
	for _, cpu := range []int{1, -1} {
		if got := cores.ClassifyWait(cpu, ready, dispatch, 50); got != (WaitSplit{Delivery: 900}) {
			t.Errorf("cpu %d: split %+v, want all delivery", cpu, got)
		}
	}
}
