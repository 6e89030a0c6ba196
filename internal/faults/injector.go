package faults

import (
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/rng"
	"skyloft/internal/trace"
)

// Counters tallies what the injector actually did. Chaos reports surface
// them so a gate can assert the plan really exercised the fault paths.
type Counters struct {
	IPIsDropped    uint64 `json:"ipis_dropped"`
	IPIsDelayed    uint64 `json:"ipis_delayed"`
	IPIsDuplicated uint64 `json:"ipis_duplicated"`
	TimerMisses    uint64 `json:"timer_misses"`
	TimerDrifts    uint64 `json:"timer_drifts"`
	Suppressed     uint64 `json:"uintr_suppressed"`
	StallWindows   uint64 `json:"stall_windows"`
}

// Total reports the number of injected faults of every kind.
func (c Counters) Total() uint64 {
	return c.IPIsDropped + c.IPIsDelayed + c.IPIsDuplicated +
		c.TimerMisses + c.TimerDrifts + c.Suppressed + c.StallWindows
}

// Injector executes a Plan against one machine. Each rule draws from its
// own splitmix64 stream (derived from the plan seed), consumed only at
// that rule's own match opportunities — so adding a rule never perturbs
// another rule's decisions, and a run replays bit-identically from
// (plan, seed) alone.
type Injector struct {
	m       *hw.Machine
	ring    *trace.Ring
	plan    *Plan
	streams []*rng.Rand
	stats   Counters
}

// NewInjector binds plan to machine m. Call Attach before running.
func NewInjector(plan *Plan, m *hw.Machine) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(plan.Seed ^ 0xFA017)
	in := &Injector{m: m, plan: plan}
	for range plan.Rules {
		in.streams = append(in.streams, root.Split())
	}
	return in, nil
}

// Counters reports what has been injected so far.
func (in *Injector) Counters() Counters { return in.stats }

// Plan reports the attached plan.
func (in *Injector) Plan() *Plan { return in.plan }

// Attach installs the fault hooks on the machine and schedules CoreStall
// windows on its clock. ring, when non-nil, receives a trace.Inject event
// for every fault actually injected (CPU = target core, App = −1, Arg =
// the trace.Inject* code) so Perfetto exports and the doctor can correlate
// tail windows with fault onset.
func (in *Injector) Attach(ring *trace.Ring) {
	in.ring = ring
	in.m.Hooks = &hw.FaultHooks{IPI: in.onIPI, Timer: in.onTimer, UIPI: in.onUIPI}
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.Kind != CoreStall {
			continue
		}
		in.armStall(r)
	}
}

// Detach removes the hooks (stall windows already scheduled still fire).
func (in *Injector) Detach() { in.m.Hooks = nil }

// armStall schedules the straggler window boundaries for one rule.
func (in *Injector) armStall(r *Rule) {
	core := in.m.Cores[r.Core]
	in.m.Clock.At(r.From, func() {
		core.SetStall(r.Factor)
		in.stats.StallWindows++
		in.record(r.Core, trace.InjectStallOn)
	})
	in.m.Clock.At(r.Until, func() {
		core.SetStall(1)
		in.record(r.Core, trace.InjectStallOff)
	})
}

// record notes an injected fault in the trace ring.
func (in *Injector) record(cpu int, code int64) {
	if in.ring == nil {
		return
	}
	in.ring.Record(trace.Event{
		At: in.m.Clock.Now(), Kind: trace.Inject, CPU: cpu, App: -1, Arg: code,
	})
}

// onIPI is the hw.FaultHooks.IPI hook.
func (in *Injector) onIPI(from, to int, vec uint8) hw.IPIVerdict {
	var v hw.IPIVerdict
	now := in.m.Clock.Now()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !r.active(to, now) {
			continue
		}
		switch r.Kind {
		case IPIDrop:
			if !v.Drop && in.streams[i].Bernoulli(r.Rate) {
				v.Drop = true
				in.stats.IPIsDropped++
				in.record(to, trace.InjectIPIDrop)
			}
		case IPIDelay:
			if in.streams[i].Bernoulli(r.Rate) {
				v.Extra += r.Delay
				in.stats.IPIsDelayed++
				in.record(to, trace.InjectIPIDelay)
			}
		case IPIDup:
			if in.streams[i].Bernoulli(r.Rate) {
				v.Dup++
				in.stats.IPIsDuplicated++
				in.record(to, trace.InjectIPIDup)
			}
		}
	}
	return v
}

// onTimer is the hw.FaultHooks.Timer hook.
func (in *Injector) onTimer(core int) hw.TimerVerdict {
	var v hw.TimerVerdict
	now := in.m.Clock.Now()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if !r.active(core, now) {
			continue
		}
		switch r.Kind {
		case TimerMiss:
			if !v.Miss && in.streams[i].Bernoulli(r.Rate) {
				v.Miss = true
				in.stats.TimerMisses++
				in.record(core, trace.InjectTimerMiss)
			}
		case TimerDrift:
			if in.streams[i].Bernoulli(r.Rate) {
				d := r.Delay
				if in.streams[i].Uint64()&1 == 1 {
					d = -d
				}
				v.Drift += d
				in.stats.TimerDrifts++
				in.record(core, trace.InjectTimerDrift)
			}
		}
	}
	return v
}

// onUIPI is the hw.FaultHooks.UIPI hook: true suppresses the notification.
func (in *Injector) onUIPI(to int, vec uint8) bool {
	now := in.m.Clock.Now()
	for i := range in.plan.Rules {
		r := &in.plan.Rules[i]
		if r.Kind != UINTRSuppress || !r.active(to, now) {
			continue
		}
		if in.streams[i].Bernoulli(r.Rate) {
			in.stats.Suppressed++
			in.record(to, trace.InjectUINTRSuppress)
			return true
		}
	}
	return false
}

// RegisterMetrics exposes the injector's counters on the registry under
// the faults.* namespace (func-backed, snapshot-time reads only).
func (in *Injector) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("faults.ipis.dropped", func() uint64 { return in.stats.IPIsDropped })
	r.CounterFunc("faults.ipis.delayed", func() uint64 { return in.stats.IPIsDelayed })
	r.CounterFunc("faults.ipis.duplicated", func() uint64 { return in.stats.IPIsDuplicated })
	r.CounterFunc("faults.timer.misses", func() uint64 { return in.stats.TimerMisses })
	r.CounterFunc("faults.timer.drifts", func() uint64 { return in.stats.TimerDrifts })
	r.CounterFunc("faults.uintr.suppressed", func() uint64 { return in.stats.Suppressed })
	r.CounterFunc("faults.stall.windows", func() uint64 { return in.stats.StallWindows })
}
