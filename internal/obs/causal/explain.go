package causal

// The tracer's export surface: the JSON document skyloft-explain consumes,
// the Perfetto flow-event journeys, and the human-readable renderings (the
// bench exemplar table and the annotated per-request timeline).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"skyloft/internal/obs"
	"skyloft/internal/simtime"
)

// Document is the serialised tracer state: counts plus the retained
// exemplars, worst first. cmd/skyloft-explain reads it from -causal-out
// files and from flight-recorder bundles (exemplars.json).
type Document struct {
	K          int              `json:"k"`
	Episodes   bool             `json:"episodes"`
	TickPeriod simtime.Duration `json:"tick_period_ns"`
	Started    uint64           `json:"started"`
	Completed  uint64           `json:"completed"`
	Abandoned  uint64           `json:"abandoned"`
	Exemplars  []Exemplar       `json:"exemplars"`
}

// Document snapshots the tracer.
func (t *Tracer) Document() Document {
	return Document{
		K: ExemplarK, Episodes: t.cfg.Episodes, TickPeriod: t.cfg.TickPeriod,
		Started: t.started, Completed: t.completed, Abandoned: t.abandoned,
		Exemplars: t.Exemplars(),
	}
}

// WriteJSON writes the document as indented JSON (the obs emit contract).
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := t.Document()
	return WriteDocument(w, &doc)
}

// WriteDocument writes doc as indented JSON.
func WriteDocument(w io.Writer, doc *Document) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadDocument loads a document from path — either a causal JSON file or a
// flight-recorder bundle directory (path/exemplars.json).
func ReadDocument(path string) (*Document, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, "exemplars.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// Find returns the exemplar with the given request ID, or nil.
func (d *Document) Find(id uint64) *Exemplar {
	for i := range d.Exemplars {
		if d.Exemplars[i].ID == id {
			return &d.Exemplars[i]
		}
	}
	return nil
}

// Worst returns the slowest retained exemplar, or nil when none.
func (d *Document) Worst() *Exemplar {
	if len(d.Exemplars) == 0 {
		return nil
	}
	return &d.Exemplars[0]
}

// edge pairs a critical-path class with its contribution.
type edge struct {
	name string
	d    simtime.Duration
}

func (b Breakdown) edges() []edge {
	return []edge{
		{"service", b.Service},
		{"queue", b.Queue},
		{"tick-quant", b.TickQuant},
		{"preempt-delay", b.PreemptDelay},
		{"delivery", b.Delivery},
	}
}

// pathLine renders the critical path, largest edge first (stable order on
// ties: service, queue, tick-quant, preempt-delay, delivery).
func pathLine(b Breakdown, sojourn simtime.Duration) string {
	es := b.edges()
	// Insertion sort by contribution descending; len is 5.
	for i := 1; i < len(es); i++ {
		for k := i; k > 0 && es[k].d > es[k-1].d; k-- {
			es[k], es[k-1] = es[k-1], es[k]
		}
	}
	out := ""
	for i, e := range es {
		if i > 0 {
			out += " + "
		}
		pct := 0.0
		if sojourn > 0 {
			pct = 100 * float64(e.d) / float64(sojourn)
		}
		out += fmt.Sprintf("%s %v (%.1f%%)", e.name, e.d, pct)
	}
	return out
}

// waitLabel names a hop's dominant wait class.
func waitLabel(h Hop) string {
	label, max := "delivery", h.Delivery
	if h.Queue > max {
		label, max = "queue", h.Queue
	}
	if h.TickQuant > max {
		label, max = "tick-quant", h.TickQuant
	}
	if h.PreemptDelay > max {
		label = "preempt-delay"
	}
	return label
}

// Explain renders one exemplar's journey as an annotated timeline with
// per-edge critical-path attribution — the skyloft-explain output.
func Explain(w io.Writer, ex *Exemplar) error {
	slow := ""
	if ex.Demand > 0 {
		slow = fmt.Sprintf(", slowdown %.1fx", float64(ex.Sojourn)/float64(ex.Demand))
	}
	if _, err := fmt.Fprintf(w,
		"%s %d (app %d, class %d, flow %d, ring %d): sojourn %v, demand %v%s\n",
		ex.Kind, ex.ID, ex.App, ex.Class, ex.Flow, ex.Ring, ex.Sojourn, ex.Demand, slow); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "critical path: %s\n", pathLine(ex.Breakdown, ex.Sojourn)); err != nil {
		return err
	}
	rel := func(at simtime.Time) string { return "+" + (at - ex.Arrive).String() }
	fmt.Fprintf(w, "timeline:\n")
	switch {
	case ex.Ring >= 0:
		fmt.Fprintf(w, "  %-12s  arrive at NIC (RSS ring %d)\n", "+0", ex.Ring)
	case ex.Kind == "episode":
		fmt.Fprintf(w, "  %-12s  wake (task %d)\n", "+0", ex.Task)
	default:
		fmt.Fprintf(w, "  %-12s  injected (direct)\n", "+0")
	}
	if ex.Breakdown.Delivery > 0 && ex.Ring >= 0 && len(ex.Hops) > 0 {
		// The datapath edge ends where the first wait begins.
		first := ex.Hops[0]
		fmt.Fprintf(w, "  %-12s  delivered to ring handler, bound to task %d\n",
			rel(first.At-first.Wait), ex.Task)
	}
	for i := range ex.Hops {
		h := &ex.Hops[i]
		ann := ""
		if h.UintrAt > 0 {
			ann = fmt.Sprintf("; uintr delivered %s", rel(h.UintrAt))
		}
		fmt.Fprintf(w, "  %-12s  dispatch on cpu %d (wait %v: %s%s)\n",
			rel(h.At), h.CPU, h.Wait, waitLabel(*h), ann)
		fmt.Fprintf(w, "  %-12s    ran %v -> %s\n", "", h.Run, h.End)
	}
	_, err := fmt.Fprintf(w, "  %-12s  reply\n", rel(ex.Arrive+ex.Sojourn))
	return err
}

// List renders every retained exemplar as one line, worst first.
func (d *Document) List(w io.Writer) error {
	for i := range d.Exemplars {
		ex := &d.Exemplars[i]
		if _, err := fmt.Fprintf(w,
			"%s %-6d app=%-2d class=%-2d sojourn=%-12v queue=%-10v tick-quant=%-10v preempt-delay=%-10v delivery=%-10v service=%-10v hops=%d\n",
			ex.Kind, ex.ID, ex.App, ex.Class, ex.Sojourn,
			ex.Breakdown.Queue, ex.Breakdown.TickQuant, ex.Breakdown.PreemptDelay,
			ex.Breakdown.Delivery, ex.Breakdown.Service, len(ex.Hops)); err != nil {
			return err
		}
	}
	return nil
}

// Report prints the miner's state and exemplar table — the skyloft-bench
// section next to the span summary.
func (t *Tracer) Report(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "causal: %d journeys traced, %d complete, %d in flight; top %d exemplars (skyloft-explain <id>):\n",
		t.started, t.completed, t.InFlight(), len(t.top)); err != nil {
		return err
	}
	doc := t.Document()
	return doc.List(w)
}

// FlowJourneys exports the retained exemplars as Perfetto flow journeys:
// one flow point per dispatch hop plus the reply instant, each bound to the
// CPU track slice it lands in.
func (t *Tracer) FlowJourneys() []obs.FlowJourney {
	var out []obs.FlowJourney
	for _, ex := range t.top {
		if len(ex.Hops) == 0 {
			continue
		}
		fj := obs.FlowJourney{ID: ex.ID, Name: fmt.Sprintf("req %d", ex.ID)}
		for _, h := range ex.Hops {
			fj.Points = append(fj.Points, obs.FlowPoint{At: h.At, CPU: h.CPU})
		}
		last := ex.Hops[len(ex.Hops)-1]
		fj.Points = append(fj.Points, obs.FlowPoint{At: ex.Arrive + ex.Sojourn, CPU: last.CPU})
		out = append(out, fj)
	}
	return out
}
