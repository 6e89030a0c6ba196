package obs

import (
	"bufio"
	"io"
	"strconv"
	"unicode/utf8"

	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Chrome trace_event JSON (the "JSON Array with metadata" flavour), loadable
// in ui.perfetto.dev and chrome://tracing. Layout: one process ("skyloft
// machine"), one thread track per simulated CPU carrying complete-duration
// ("ph":"X") slices for every on-CPU interval, instant events on the core
// tracks for IPI-ish moments (steals, app switches), and a dedicated track
// for wakes (which are not core-scoped: CPU = -1).

// TraceEvent is one trace_event record. Timestamps and durations are in
// microseconds, per the format; Args carry the raw ns values. WritePerfetto
// streams records without building TraceEvents; the type is the decoding
// side (CheckTraceFile) and fixes the field order the writer emits.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`   // instant scope: "t" thread
	Cat  string         `json:"cat,omitempty"` // event category
	ID   uint64         `json:"id,omitempty"`  // flow-event binding ID
	BP   string         `json:"bp,omitempty"`  // flow bind point ("e": enclosing)
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level trace_event JSON document.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// FlowPoint is one step of a request journey: an instant on a CPU track
// that a flow event should bind to.
type FlowPoint struct {
	At  simtime.Time
	CPU int
}

// FlowJourney is a causal request journey rendered as a Perfetto flow: a
// chain of arrows linking the slices the request executed in. The causal
// tracer exports its retained exemplars this way.
type FlowJourney struct {
	ID     uint64
	Name   string
	Points []FlowPoint
}

// ExportConfig parameterises WritePerfetto.
type ExportConfig struct {
	// NumCPUs forces a track (thread_name metadata) per worker CPU even if
	// some recorded no events — the Perfetto view should show the whole
	// machine. 0 derives it from the events.
	NumCPUs int
	// AppNames labels slices "app/task-id"; missing entries fall back to
	// "app<N>".
	AppNames []string
	// Instants includes instant events (wakes, steals, app switches) in
	// addition to the on-CPU slices.
	Instants bool
	// Flows adds flow events ("s"/"t"/"f") linking the slices each causal
	// exemplar journey touched. Empty leaves the output byte-identical to
	// pre-flow exports.
	Flows []FlowJourney
}

const tracePid = 1

// wakeTrackTid reports the synthetic track for non-core-scoped events.
func wakeTrackTid(numCPUs int) int { return numCPUs }

// WritePerfetto renders a chronological event window as trace_event JSON on
// w. Slices are built per core: a Dispatch opens the slice, the next off-CPU
// event for that core closes it; a slice still open at the window's end is
// emitted as running to the last event's timestamp.
//
// The export is one append-only pass: each record is formatted with strconv
// into one reused scratch buffer and handed to a bufio.Writer, so no
// TraceEvent, args map or formatted name is built per record. The bytes are
// exactly those json.NewEncoder(w).Encode writes for the equivalent
// TraceFile: TraceEvent's field order and omitempty rules, sorted args
// keys, encoding/json's float and HTML-escaping string formats, and the
// trailing newline. FuzzPerfettoMatchesJSON holds it to that.
func WritePerfetto(w io.Writer, events []trace.Event, cfg ExportConfig) error {
	numCPUs := cfg.NumCPUs
	for _, ev := range events {
		if ev.CPU >= numCPUs {
			numCPUs = ev.CPU + 1
		}
	}
	p := perfettoWriter{bw: bufio.NewWriterSize(w, 64<<10), appNames: cfg.AppNames}
	p.bw.WriteString(`{"traceEvents":[`)

	b := p.start()
	b = append(b, `"process_name"`...)
	b = head{ph: "M"}.append(b)
	p.end(append(b, `,"args":{"name":"skyloft machine"}`...))
	for cpu := 0; cpu < numCPUs; cpu++ {
		b := p.start()
		b = append(b, `"thread_name"`...)
		b = head{ph: "M", tid: cpu}.append(b)
		b = append(b, `,"args":{"name":"cpu `...)
		b = strconv.AppendInt(b, int64(cpu), 10)
		p.end(append(b, `"}`...))
	}
	b = p.start()
	b = append(b, `"thread_name"`...)
	b = head{ph: "M", tid: wakeTrackTid(numCPUs)}.append(b)
	p.end(append(b, `,"args":{"name":"wakes"}`...))

	open := make([]openSlice, numCPUs)
	var lastAt int64
	for _, ev := range events {
		at := int64(ev.At)
		lastAt = at
		switch ev.Kind {
		case trace.Dispatch:
			if ev.CPU >= 0 {
				// A dispatch over a still-open slice (truncated window)
				// closes the stale slice at the new start.
				p.closeSlice(&open[ev.CPU], ev.CPU, at, "truncated")
				open[ev.CPU] = openSlice{task: ev.Task, app: ev.App, start: at, active: true}
			}
		case trace.Preempt, trace.Yield, trace.Block, trace.Sleep, trace.Exit:
			if ev.CPU >= 0 {
				p.closeSlice(&open[ev.CPU], ev.CPU, at, ev.Kind.String())
			}
		case trace.Wake:
			if cfg.Instants {
				b := p.start()
				b = p.appendTaskName(b, "wake ", ev.App, ev.Task)
				b = head{ph: "i", cat: "wake", s: "t", ts: at, tid: wakeTrackTid(numCPUs)}.append(b)
				b = append(b, `,"args":{"app":`...)
				b = strconv.AppendInt(b, int64(ev.App), 10)
				b = append(b, `,"task":`...)
				b = strconv.AppendInt(b, int64(ev.Task), 10)
				p.end(append(b, '}'))
			}
		case trace.Steal, trace.AppSwitch, trace.Fault:
			if cfg.Instants && ev.CPU >= 0 {
				b := p.start()
				b = appendJSONString(b, ev.Kind.String())
				b = head{ph: "i", cat: "sched", s: "t", ts: at, tid: ev.CPU}.append(b)
				b = append(b, `,"args":{"app":`...)
				b = strconv.AppendInt(b, int64(ev.App), 10)
				b = append(b, `,"arg":`...)
				b = strconv.AppendInt(b, ev.Arg, 10)
				b = append(b, `,"task":`...)
				b = strconv.AppendInt(b, int64(ev.Task), 10)
				p.end(append(b, '}'))
			}
		case trace.Inject:
			// Injected faults land on the affected CPU's track under their
			// own category so chaos-run tails can be eyeballed against
			// fault onset.
			if cfg.Instants && ev.CPU >= 0 {
				b := p.start()
				b = appendJSONString(b, trace.InjectName(ev.Arg))
				b = head{ph: "i", cat: "fault", s: "t", ts: at, tid: ev.CPU}.append(b)
				b = append(b, `,"args":{"arg":`...)
				b = strconv.AppendInt(b, ev.Arg, 10)
				p.end(append(b, '}'))
			}
		}
	}
	for cpu := range open {
		p.closeSlice(&open[cpu], cpu, lastAt, "window-end")
	}

	// Flow events: one "s" -> "t"* -> "f" chain per journey, clipped to the
	// exported window so every arrow lands inside a real slice. Journeys
	// whose clipped chain has fewer than two points are dropped (an arrow
	// needs both ends), so each chain is counted before it is written.
	if len(cfg.Flows) > 0 && len(events) > 0 {
		firstAt := int64(events[0].At)
		inWindow := func(pt FlowPoint) bool {
			return int64(pt.At) >= firstAt && int64(pt.At) <= lastAt && pt.CPU >= 0
		}
		for _, fj := range cfg.Flows {
			n := 0
			for _, pt := range fj.Points {
				if inWindow(pt) {
					n++
				}
			}
			if n < 2 {
				continue
			}
			i := 0
			for _, pt := range fj.Points {
				if !inWindow(pt) {
					continue
				}
				h := head{ph: "t", cat: "causal", ts: int64(pt.At), tid: pt.CPU, id: fj.ID}
				switch i {
				case 0:
					h.ph = "s"
				case n - 1:
					h.ph, h.bp = "f", "e"
				}
				b := p.start()
				b = appendJSONString(b, fj.Name)
				p.end(h.append(b))
				i++
			}
		}
	}

	p.bw.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return p.bw.Flush()
}

// openSlice is a core's on-CPU interval still waiting for its end.
type openSlice struct {
	task, app int
	start     int64
	active    bool
}

// perfettoWriter streams the records of one export. The first write error
// sticks in the bufio.Writer and is returned by its final Flush.
type perfettoWriter struct {
	bw       *bufio.Writer
	rec      []byte // scratch: the record being formatted
	records  int
	appNames []string
}

// start begins a record up to its name's value, which the caller appends.
func (p *perfettoWriter) start() []byte {
	b := p.rec[:0]
	if p.records > 0 {
		b = append(b, ',')
	}
	p.records++
	return append(b, `{"name":`...)
}

// end closes the record and hands it to the buffered writer.
func (p *perfettoWriter) end(b []byte) {
	p.rec = append(b, '}')
	p.bw.Write(p.rec)
}

// closeSlice emits o as a complete-duration slice on cpu's track ending at
// endNs, if it is open.
func (p *perfettoWriter) closeSlice(o *openSlice, cpu int, endNs int64, reason string) {
	if !o.active {
		return
	}
	o.active = false
	b := p.start()
	b = p.appendTaskName(b, "", o.app, o.task)
	b = head{ph: "X", cat: "sched", ts: o.start, dur: endNs - o.start, tid: cpu}.append(b)
	b = append(b, `,"args":{"app":`...)
	b = strconv.AppendInt(b, int64(o.app), 10)
	b = append(b, `,"end":`...)
	b = appendJSONString(b, reason)
	b = append(b, `,"task":`...)
	b = strconv.AppendInt(b, int64(o.task), 10)
	p.end(append(b, '}'))
}

// appendTaskName appends the quoted name "<prefix><app>/task-<task>", where
// <app> is the app's AppNames entry or, when that is missing or empty,
// "app<N>". prefix is a literal of this file and needs no escaping; the
// ASCII around the app name cannot join an invalid UTF-8 sequence in it, so
// escaping the name alone escapes the whole string.
func (p *perfettoWriter) appendTaskName(b []byte, prefix string, app, task int) []byte {
	b = append(b, '"')
	b = append(b, prefix...)
	if app >= 0 && app < len(p.appNames) && p.appNames[app] != "" {
		b = appendEscaped(b, p.appNames[app])
	} else {
		b = append(b, "app"...)
		b = strconv.AppendInt(b, int64(app), 10)
	}
	b = append(b, "/task-"...)
	b = strconv.AppendInt(b, int64(task), 10)
	return append(b, '"')
}

// head is a record's fields after its name, in TraceEvent's field order.
// Times are in ns. ph, s, cat and bp are literals of this file and need no
// escaping.
type head struct {
	ph      string
	ts, dur int64
	tid     int
	s, cat  string
	id      uint64
	bp      string
}

// append appends the fields, leaving out those TraceEvent's omitempty tags
// omit: a zero dur or id and an empty s, cat or bp. ts is always written.
func (h head) append(b []byte) []byte {
	b = append(b, `,"ph":"`...)
	b = append(b, h.ph...)
	b = append(b, `","ts":`...)
	b = appendUsec(b, h.ts)
	if h.dur != 0 {
		b = append(b, `,"dur":`...)
		b = appendUsec(b, h.dur)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, tracePid, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(h.tid), 10)
	if h.s != "" {
		b = append(b, `,"s":"`...)
		b = append(b, h.s...)
		b = append(b, '"')
	}
	if h.cat != "" {
		b = append(b, `,"cat":"`...)
		b = append(b, h.cat...)
		b = append(b, '"')
	}
	if h.id != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, h.id, 10)
	}
	if h.bp != "" {
		b = append(b, `,"bp":"`...)
		b = append(b, h.bp...)
		b = append(b, '"')
	}
	return b
}

// appendUsec appends ns as encoding/json formats the float64 microsecond
// value float64(ns)/1e3. For an int64 that value is 0 or has a magnitude in
// [1e-3, 1e16), inside the range where encoding/json writes 'f' at the
// shortest precision, so its exponent form never arises.
func appendUsec(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e3, 'f', -1, 64)
}

// appendJSONString appends s quoted and escaped as encoding/json's default
// encoder writes it.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends the body of s as encoding/json's HTML-escaping
// encoder writes it: '"' and '\\' backslash-escaped; \b, \f, \n, \r and \t
// by name; other control bytes and '<', '>', '&' as \u00XX; U+2028 and
// U+2029 as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
