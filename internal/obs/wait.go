package obs

import (
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// WaitSplit decomposes one wait — a task ready at some instant, dispatched
// later on some core — into the four causes the paper's §5.1 analysis
// identifies by hand. The parts sum exactly to the wait.
//
//   - Queue: the core was busy at ready time and freed up when its task
//     left voluntarily (yield/block/sleep/exit) — the task waited its turn.
//   - TickQuant: the core was freed by a preemption; this part of the wait
//     (at most one tick period) is the quantisation cost of a periodic
//     preemption tick.
//   - PreemptDelay: the rest of a preemption-ended wait beyond one tick
//     period (the policy let the incumbent keep running). With no tick
//     (period <= 0) the whole preemption-ended wait lands here.
//   - Delivery: wake-IPI/UINTR delivery plus the dispatch path (pick,
//     context switch) after the core was available.
type WaitSplit struct {
	Queue        simtime.Duration
	TickQuant    simtime.Duration
	PreemptDelay simtime.Duration
	Delivery     simtime.Duration
}

// coreRelease is what last freed one core.
type coreRelease struct {
	at       simtime.Time
	kind     trace.Kind
	occupied bool // the core has run a task since tracking began
}

// CoreReleases is the per-core occupancy replay behind ClassifyWait: a core
// is occupied from a Dispatch until the next off-CPU event on it, which
// records when and how the core was released. The zero value is ready to
// use.
type CoreReleases struct {
	cores []coreRelease // indexed by CPU
}

// Observe folds one event: a Dispatch marks its core occupied, an off-CPU
// event (Preempt, Yield, Block, Sleep, Exit) records the release. Other
// kinds, and events without a core, are ignored.
func (c *CoreReleases) Observe(ev trace.Event) {
	switch ev.Kind {
	case trace.Dispatch:
		if r := c.core(ev.CPU); r != nil {
			r.occupied = true
		}
	case trace.Preempt, trace.Yield, trace.Block, trace.Sleep, trace.Exit:
		if r := c.core(ev.CPU); r != nil {
			r.at, r.kind = ev.At, ev.Kind
		}
	}
}

func (c *CoreReleases) core(cpu int) *coreRelease {
	if cpu < 0 {
		return nil
	}
	for cpu >= len(c.cores) {
		c.cores = append(c.cores, coreRelease{})
	}
	return &c.cores[cpu]
}

// ClassifyWait splits the wait [ready, dispatch) of a task dispatched on
// cpu, given the events observed so far, with tick the preemption-tick
// period (<= 0: no tick). Call it before observing the Dispatch itself:
// what freed the core last decides the class.
func (c *CoreReleases) ClassifyWait(cpu int, ready, dispatch simtime.Time, tick simtime.Duration) WaitSplit {
	var r coreRelease
	if cpu >= 0 && cpu < len(c.cores) {
		r = c.cores[cpu]
	}
	if !r.occupied || r.at <= ready {
		// The core was already free at ready time: the whole wait is
		// delivery plus the dispatch path.
		return WaitSplit{Delivery: dispatch - ready}
	}
	wait := r.at - ready
	s := WaitSplit{Delivery: dispatch - r.at}
	if r.kind != trace.Preempt {
		s.Queue = wait
		return s
	}
	if tick > 0 {
		s.TickQuant = min(wait, tick)
	}
	s.PreemptDelay = wait - s.TickQuant
	return s
}
