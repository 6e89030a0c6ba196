package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// trial share its trial id; a trial's root span is the parent of its calls.
type span struct {
	ID     int    `json:"id"`
	Trial  int    `json:"trial"`
	Parent int    `json:"parent"` // 0 for a trial's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's epoch
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced rounds pay one nil check per call.
type spanLog struct {
	epoch time.Time
	spans []span
	trial int
	root  int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// beginTrial opens the root span of a new trial.
func (l *spanLog) beginTrial(name string) {
	if l == nil {
		return
	}
	l.trial++
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Trial: l.trial, Name: name, Start: l.now()})
	l.root = len(l.spans)
}

// endTrial closes the root span opened by beginTrial.
func (l *spanLog) endTrial() {
	if l == nil {
		return
	}
	l.spans[l.root-1].End = l.now()
	l.root = 0
}

// do runs fn inside a span named after the public call it makes.
func (l *spanLog) do(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := l.now()
	fn()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Trial: l.trial, Parent: l.root,
		Name: name, Start: start, End: l.now(),
	})
}

// total sums the durations of the spans whose names are in names.
func (l *spanLog) total(names ...string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		for _, n := range names {
			if s.Name == n {
				d += time.Duration(s.End - s.Start)
			}
		}
	}
	return d
}

// write dumps the log as JSON.
func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
