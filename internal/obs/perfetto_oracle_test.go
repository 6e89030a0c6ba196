package obs

// BuildPerfetto is the original Perfetto exporter, kept as the reference
// implementation for the streaming WritePerfetto: it builds a TraceEvent
// with an args map and a formatted name per record, and encoding/json
// reflects over the whole document. json.NewEncoder(w).Encode of its result
// is the byte sequence WritePerfetto must write; FuzzPerfettoMatchesJSON
// asserts it, and BenchmarkPerfettoOracle keeps the cost visible.

import (
	"fmt"

	"skyloft/internal/trace"
)

func (c *ExportConfig) appLabel(app int) string {
	if app >= 0 && app < len(c.AppNames) && c.AppNames[app] != "" {
		return c.AppNames[app]
	}
	return fmt.Sprintf("app%d", app)
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// BuildPerfetto converts a chronological event window into a trace_event
// document. Slices are built per core: a Dispatch opens the slice, the next
// off-CPU event for that core closes it; a slice still open at the window's
// end is emitted as running to the last event's timestamp.
func BuildPerfetto(events []trace.Event, cfg ExportConfig) *TraceFile {
	numCPUs := cfg.NumCPUs
	for _, ev := range events {
		if ev.CPU >= numCPUs {
			numCPUs = ev.CPU + 1
		}
	}
	tf := &TraceFile{DisplayTimeUnit: "ns", TraceEvents: []TraceEvent{}}
	add := func(ev TraceEvent) { tf.TraceEvents = append(tf.TraceEvents, ev) }

	add(TraceEvent{Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "skyloft machine"}})
	for cpu := 0; cpu < numCPUs; cpu++ {
		add(TraceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: cpu,
			Args: map[string]any{"name": fmt.Sprintf("cpu %d", cpu)}})
	}
	add(TraceEvent{Name: "thread_name", Ph: "M", Pid: tracePid, Tid: wakeTrackTid(numCPUs),
		Args: map[string]any{"name": "wakes"}})

	// Open slice per core.
	type openSlice struct {
		task, app int
		start     int64
		active    bool
	}
	open := make([]openSlice, numCPUs)
	var lastAt int64
	closeSlice := func(cpu int, endNs int64, reason string) {
		o := &open[cpu]
		if !o.active {
			return
		}
		o.active = false
		add(TraceEvent{
			Name: fmt.Sprintf("%s/task-%d", cfg.appLabel(o.app), o.task),
			Ph:   "X", Cat: "sched",
			Ts: usec(o.start), Dur: usec(endNs - o.start),
			Pid: tracePid, Tid: cpu,
			Args: map[string]any{"task": o.task, "app": o.app, "end": reason},
		})
	}

	for _, ev := range events {
		at := int64(ev.At)
		lastAt = at
		switch ev.Kind {
		case trace.Dispatch:
			if ev.CPU >= 0 {
				// A dispatch over a still-open slice (truncated window)
				// closes the stale slice at the new start.
				closeSlice(ev.CPU, at, "truncated")
				open[ev.CPU] = openSlice{task: ev.Task, app: ev.App, start: at, active: true}
			}
		case trace.Preempt, trace.Yield, trace.Block, trace.Sleep, trace.Exit:
			if ev.CPU >= 0 {
				closeSlice(ev.CPU, at, ev.Kind.String())
			}
		case trace.Wake:
			if cfg.Instants {
				add(TraceEvent{
					Name: fmt.Sprintf("wake %s/task-%d", cfg.appLabel(ev.App), ev.Task),
					Ph:   "i", Cat: "wake", S: "t",
					Ts: usec(at), Pid: tracePid, Tid: wakeTrackTid(numCPUs),
					Args: map[string]any{"task": ev.Task, "app": ev.App},
				})
			}
		case trace.Steal, trace.AppSwitch, trace.Fault:
			if cfg.Instants && ev.CPU >= 0 {
				add(TraceEvent{
					Name: ev.Kind.String(),
					Ph:   "i", Cat: "sched", S: "t",
					Ts: usec(at), Pid: tracePid, Tid: ev.CPU,
					Args: map[string]any{"task": ev.Task, "app": ev.App, "arg": ev.Arg},
				})
			}
		case trace.Inject:
			// Injected faults land on the affected CPU's track under their
			// own category so chaos-run tails can be eyeballed against
			// fault onset.
			if cfg.Instants && ev.CPU >= 0 {
				add(TraceEvent{
					Name: trace.InjectName(ev.Arg),
					Ph:   "i", Cat: "fault", S: "t",
					Ts: usec(at), Pid: tracePid, Tid: ev.CPU,
					Args: map[string]any{"arg": ev.Arg},
				})
			}
		}
	}
	for cpu := range open {
		closeSlice(cpu, lastAt, "window-end")
	}

	// Flow events: one "s" -> "t"* -> "f" chain per journey, clipped to the
	// exported window so every arrow lands inside a real slice. Journeys
	// whose clipped chain has fewer than two points are dropped (an arrow
	// needs both ends).
	if len(cfg.Flows) > 0 && len(events) > 0 {
		firstAt := int64(events[0].At)
		for _, fj := range cfg.Flows {
			var pts []FlowPoint
			for _, p := range fj.Points {
				if at := int64(p.At); at >= firstAt && at <= lastAt && p.CPU >= 0 {
					pts = append(pts, p)
				}
			}
			if len(pts) < 2 {
				continue
			}
			for i, p := range pts {
				ph := "t"
				bp := ""
				switch i {
				case 0:
					ph = "s"
				case len(pts) - 1:
					ph = "f"
					bp = "e"
				}
				add(TraceEvent{
					Name: fj.Name, Ph: ph, Cat: "causal",
					Ts: usec(int64(p.At)), Pid: tracePid, Tid: p.CPU,
					ID: fj.ID, BP: bp,
				})
			}
		}
	}
	return tf
}
