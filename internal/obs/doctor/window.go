package doctor

import (
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
	"skyloft/internal/trace"
)

// WindowStats aggregates one fixed virtual-time window of the run: the
// continuous view of the run that a single end-of-run histogram hides
// (warm-up transients, throughput collapses, a queue that never drains).
type WindowStats struct {
	Start simtime.Time `json:"start_ns"`
	End   simtime.Time `json:"end_ns"`

	// Completed counts lifecycle spans that closed inside the window;
	// ThroughputRPS is that count scaled to per-second.
	Completed     int     `json:"completed"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Wakeup-latency percentiles of spans whose first dispatch landed in
	// this window (spans with a known wake instant only).
	WakeSamples uint64           `json:"wake_samples"`
	WakeP50     simtime.Duration `json:"wake_p50_ns"`
	WakeP99     simtime.Duration `json:"wake_p99_ns"`

	// RunqHighWater is the deepest the runnable queue got during the
	// window, including the depth it opened with (see WindowFold).
	RunqHighWater int `json:"runq_high_water"`

	// Event rates: raw counts of the window's scheduling activity.
	// Preempts double as the user-IPI delivery rate — every involuntary
	// preemption in the Skyloft engines rides a user interrupt.
	Dispatches uint64 `json:"dispatches"`
	Wakes      uint64 `json:"wakes"`
	Preempts   uint64 `json:"preempts"`
	Steals     uint64 `json:"steals"`

	// Injects counts fault-injection events (chaos mode) that landed in
	// the window — zero outside chaos runs. The fault-correlated detector
	// uses it to attribute tail windows to fault onset.
	Injects uint64 `json:"injects,omitempty"`

	// Lease-protocol activity (DESIGN.md §15) in the window — zero outside
	// oversubscription runs. LeaseRevokes counting grace-deadline
	// expirations lets skyloft-top watch forced revocation engage live.
	LeaseGrants  uint64 `json:"lease_grants,omitempty"`
	LeaseRevokes uint64 `json:"lease_revokes,omitempty"`
	LeaseReturns uint64 `json:"lease_returns,omitempty"`
}

// WindowFold is the per-window event fold shared by the batch doctor and
// the live bus. It counts the window's scheduling activity and
// reconstructs the runnable-queue depth from the event stream: wakes and
// preemption/yield re-enqueues push, dispatches pop. Initial submissions
// enter the queue without a Wake event, so the depth is a lower bound; it
// is clamped at zero and carried across windows, and each window's
// high-water mark starts at the depth the window opened with. The zero
// value is ready to use.
type WindowFold struct {
	depth int
	cur   WindowStats
}

// Add folds one event into the open window.
func (f *WindowFold) Add(ev trace.Event) {
	switch ev.Kind {
	case trace.Dispatch:
		f.cur.Dispatches++
		if f.depth > 0 {
			f.depth--
		}
	case trace.Wake:
		f.cur.Wakes++
		f.push()
	case trace.Preempt:
		f.cur.Preempts++
		f.push()
	case trace.Yield:
		f.push()
	case trace.Steal:
		f.cur.Steals++
	case trace.Inject:
		f.cur.Injects++
	case trace.LeaseGrant:
		f.cur.LeaseGrants++
	case trace.LeaseRevoke:
		f.cur.LeaseRevokes++
	case trace.LeaseReturn:
		f.cur.LeaseReturns++
	}
}

func (f *WindowFold) push() {
	f.depth++
	f.cur.RunqHighWater = max(f.cur.RunqHighWater, f.depth)
}

// Close seals the open window as [start, end) and opens the next one. The
// returned stats carry the event counts and the runqueue high-water mark;
// the span-derived fields are the caller's.
func (f *WindowFold) Close(start, end simtime.Time) WindowStats {
	ws := f.cur
	ws.Start, ws.End = start, end
	f.cur = WindowStats{RunqHighWater: f.depth}
	return ws
}

// wakeHist builds the overall wakeup-latency histogram from spans with a
// known wake instant.
func wakeHist(spans *obs.SpanSet) *stats.Hist {
	h := stats.NewHist()
	for _, s := range spans.Spans {
		if s.WakeKnown {
			h.Record(s.WakeLatency())
		}
	}
	return h
}

// buildWindows runs the WindowFold over the event stream on a fixed
// virtual-time grid. The window width doubles until the run fits in
// maxWindows windows, so a long sweep cannot blow up the report. The second
// result is the union of the per-window wakeup histograms (via
// stats.Hist.Merge) — by construction it equals the whole-run histogram,
// and TestWindowHistsMergeToOverall holds the two to that identity.
func buildWindows(events []trace.Event, spans *obs.SpanSet, cfg Config) ([]WindowStats, *stats.Hist) {
	if len(events) == 0 {
		return nil, stats.NewHist()
	}
	t0 := events[0].At
	tN := events[len(events)-1].At
	w := cfg.Window
	for int64((tN-t0)/w)+1 > maxWindows {
		w *= 2
	}
	n := int((tN-t0)/w) + 1
	idx := func(at simtime.Time) int {
		return min(max(int((at-t0)/w), 0), n-1)
	}

	out := make([]WindowStats, 0, n)
	var fold WindowFold
	closeTo := func(i int) {
		for len(out) < i {
			start := t0 + simtime.Time(len(out))*w
			out = append(out, fold.Close(start, start+w))
		}
	}
	for _, ev := range events {
		closeTo(idx(ev.At))
		fold.Add(ev)
	}
	closeTo(n)

	// Span-derived per-window signals: completions by end time, wakeup
	// latency by first-dispatch time.
	hists := make([]*stats.Hist, n)
	for i := range hists {
		hists[i] = stats.NewHist()
	}
	for _, s := range spans.Spans {
		out[idx(s.End)].Completed++
		if s.WakeKnown {
			hists[idx(s.FirstDispatch)].Record(s.WakeLatency())
		}
	}
	merged := stats.NewHist()
	for i := range out {
		out[i].ThroughputRPS = float64(out[i].Completed) * float64(simtime.Second) / float64(w)
		out[i].WakeSamples = hists[i].Count()
		out[i].WakeP50 = hists[i].P50()
		out[i].WakeP99 = hists[i].P99()
		merged.Merge(hists[i])
	}
	return out, merged
}
