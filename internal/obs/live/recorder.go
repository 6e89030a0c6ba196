package live

import (
	"encoding/json"
	"os"
	"path/filepath"

	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/obs/doctor"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// RecorderRetain is how many closed windows of events the flight recorder
// keeps.
const RecorderRetain = 8

// Recorder is the flight recorder: a bounded ring of the last
// RecorderRetain published windows at full event fidelity, plus the current
// partial window. When the first trigger fires — a live pathology
// finding, or an external detector such as faults.InvariantChecker via
// Bus.Trigger — it dumps a post-mortem bundle into Dir:
//
//	trace.json     Perfetto trace_event slice of the retained windows
//	               (validated by cmd/tracecheck), with causal flow events
//	               when a causal tracer is attached
//	metrics.json   metrics-registry snapshot at trigger time
//	               (validated by cmd/metricscheck)
//	exemplars.json causal tracer's slow-request exemplar document at
//	               trigger time (readable by cmd/skyloft-explain), when
//	               a causal tracer is attached
//	manifest.json  trigger reason + virtual time, the retained windows'
//	               stats and findings, exemplar summaries, and bundle
//	               inventory
//
// Only the first trigger materialises a bundle: the first failure is the
// interesting one, later triggers are usually its echo. Retention is
// bounded, so the recorder's memory is O(RecorderRetain ·
// events-per-window) regardless of run length — the black-box model:
// always on, cheap, and only materialised on failure.
type Recorder struct {
	// Dir is the bundle directory. Empty: triggers are counted but nothing
	// is written (perturbation tests use this).
	Dir string

	src      Source
	wins     []recWindow
	cur      []trace.Event
	triggers uint64
	dumps    int
	err      error
}

type recWindow struct {
	Stats    doctor.WindowStats `json:"window"`
	Findings []doctor.Finding   `json:"findings,omitempty"`
	events   []trace.Event
}

// manifest is the bundle's machine-readable index.
type manifest struct {
	Reason    string           `json:"reason"`
	At        simtime.Time     `json:"at_ns"`
	Trigger   uint64           `json:"trigger"`
	Events    int              `json:"events"`
	Windows   []recWindow      `json:"windows"`
	AppNames  []string         `json:"app_names,omitempty"`
	Exemplars []causal.Summary `json:"exemplars,omitempty"`
}

func (r *Recorder) attach(b *Bus) { r.src = b.src }

// record buffers one event into the current partial window.
func (r *Recorder) record(ev trace.Event) {
	r.cur = append(r.cur, ev)
}

// roll seals the current partial window under the just-published snapshot's
// stats and evicts beyond the retention bound.
func (r *Recorder) roll(snap Snapshot) {
	w := recWindow{Stats: snap.Window, Findings: snap.Findings}
	if len(r.cur) > 0 {
		w.events = append([]trace.Event(nil), r.cur...)
		r.cur = r.cur[:0]
	}
	r.wins = append(r.wins, w)
	if len(r.wins) > RecorderRetain {
		copy(r.wins, r.wins[1:])
		r.wins = r.wins[:len(r.wins)-1]
	}
}

// Trigger counts a trigger and, on the first one, dumps the bundle. Safe to
// call from detector hooks running inside event callbacks: it only reads
// recorder state and writes host-side files.
func (r *Recorder) Trigger(reason string) {
	r.triggers++
	if r.dumps > 0 {
		return
	}
	r.dumps++
	if r.Dir == "" {
		return
	}
	r.err = r.dump(r.Dir, reason)
}

// Triggers reports how many times the recorder fired.
func (r *Recorder) Triggers() uint64 { return r.triggers }

// Dumps reports how many bundles were materialised.
func (r *Recorder) Dumps() int { return r.dumps }

// Err reports the first bundle-write error.
func (r *Recorder) Err() error { return r.err }

func (r *Recorder) dump(dir, reason string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var events []trace.Event
	for _, w := range r.wins {
		events = append(events, w.events...)
	}
	events = append(events, r.cur...)

	src := r.src
	cfg := obs.ExportConfig{NumCPUs: src.Workers, AppNames: src.AppNames, Instants: true}
	if src.Causal != nil {
		cfg.Flows = src.Causal.FlowJourneys()
	}
	if err := writeFile(filepath.Join(dir, "trace.json"), func(f *os.File) error {
		return obs.WritePerfetto(f, events, cfg)
	}); err != nil {
		return err
	}
	if src.Registry != nil {
		if err := writeFile(filepath.Join(dir, "metrics.json"), func(f *os.File) error {
			return src.Registry.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	if src.Causal != nil {
		if err := writeFile(filepath.Join(dir, "exemplars.json"), func(f *os.File) error {
			return src.Causal.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	m := manifest{
		Reason:   reason,
		At:       src.Clock.Now(),
		Trigger:  r.triggers,
		Events:   len(events),
		Windows:  r.wins,
		AppNames: src.AppNames,
	}
	if src.Causal != nil {
		m.Exemplars = src.Causal.Summaries()
	}
	return writeFile(filepath.Join(dir, "manifest.json"), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(&m)
	})
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
