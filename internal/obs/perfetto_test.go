package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"skyloft/internal/rng"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

func TestPerfettoRoundTripAndTracks(t *testing.T) {
	events := []trace.Event{
		ev(1000, trace.Wake, -1, 1, 0),
		ev(2000, trace.Dispatch, 0, 1, 0),
		ev(3000, trace.Dispatch, 1, 2, 1),
		ev(5000, trace.Preempt, 0, 1, 0),
		ev(6000, trace.Steal, 0, 2, 1),
		ev(7000, trace.Dispatch, 0, 1, 0),
		ev(9000, trace.Exit, 1, 2, 1),
		ev(9500, trace.Block, 0, 1, 0),
	}
	cfg := ExportConfig{NumCPUs: 2, AppNames: []string{"lc", "be"}, Instants: true}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, events, cfg); err != nil {
		t.Fatal(err)
	}

	var tf TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if tf.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}

	slicesPerTid := map[int]int{}
	namedTids := map[int]bool{}
	instants := 0
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "X":
			slicesPerTid[e.Tid]++
			if e.Dur <= 0 {
				t.Fatalf("non-positive slice duration: %+v", e)
			}
		case "M":
			if e.Name == "thread_name" {
				namedTids[e.Tid] = true
			}
		case "i":
			instants++
		}
	}
	// One complete-duration track per simulated CPU.
	for cpu := 0; cpu < cfg.NumCPUs; cpu++ {
		if slicesPerTid[cpu] == 0 {
			t.Fatalf("cpu %d has no slices: %v", cpu, slicesPerTid)
		}
		if !namedTids[cpu] {
			t.Fatalf("cpu %d track unnamed", cpu)
		}
	}
	if !namedTids[wakeTrackTid(cfg.NumCPUs)] {
		t.Fatal("wake track unnamed")
	}
	if slicesPerTid[0] != 2 || slicesPerTid[1] != 1 {
		t.Fatalf("slice counts wrong: %v", slicesPerTid)
	}
	if instants != 2 { // wake + steal
		t.Fatalf("want 2 instants, got %d", instants)
	}
}

func TestPerfettoClosesTrailingSlices(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.Dispatch, 0, 1, 0),
		ev(900, trace.Wake, -1, 2, 0), // window ends with cpu0 still running
	}
	tf := BuildPerfetto(events, ExportConfig{NumCPUs: 1})
	found := false
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" && e.Tid == 0 {
			found = true
			if e.Args["end"] != "window-end" {
				t.Fatalf("trailing slice not marked window-end: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("trailing open slice was dropped")
	}
}

// oracleBytes is what WritePerfetto must write: encoding/json's Encoder
// over the reference BuildPerfetto document.
func oracleBytes(t testing.TB, events []trace.Event, cfg ExportConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(BuildPerfetto(events, cfg)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// matchOracle fails t unless WritePerfetto writes exactly the oracle's bytes.
func matchOracle(t testing.TB, events []trace.Event, cfg ExportConfig) {
	t.Helper()
	want := oracleBytes(t, events, cfg)
	var got bytes.Buffer
	if err := WritePerfetto(&got, events, cfg); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	i := 0
	for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
		i++
	}
	from := max(i-60, 0)
	t.Fatalf("WritePerfetto differs from encoding/json at byte %d (got %d bytes, want %d):\n got %q\nwant %q",
		i, got.Len(), len(want), got.Bytes()[from:min(i+60, got.Len())], want[from:min(i+60, len(want))])
}

// The writer formats microseconds from int64 nanoseconds in 'f' form only;
// encoding/json must agree at the extremes of int64 and around the
// sub-microsecond and exponent cutoffs.
func TestAppendUsecMatchesJSON(t *testing.T) {
	for _, ns := range []int64{0, 1, -1, 999, 1000, 1001, 123456789, -987654321,
		1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1} {
		want, err := json.Marshal(float64(ns) / 1e3)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendUsec(nil, ns); !bytes.Equal(got, want) {
			t.Errorf("appendUsec(%d) = %s, encoding/json %s", ns, got, want)
		}
	}
}

// FuzzPerfettoMatchesJSON is the differential test of the streaming
// WritePerfetto against its reference, encoding/json's Encoder over the
// BuildPerfetto document: the two must write the same bytes. prog encodes
// the event window (fuzzEvents), flows the causal flow journeys
// (fuzzFlows), names the '|'-separated AppNames, which also name the
// flows, cpus the configured NumCPUs and instants the Instants switch. The
// seed corpus lives in testdata/fuzz.
func FuzzPerfettoMatchesJSON(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 0, 3, 1, 2, 1, 0, 0, 4, 9, 0, 2, 1, 0, 0, 10, 2, 1, 0, 5, 1},
		[]byte{7, 3, 0, 0, 2, 1, 0, 2, 2, 5, 2}, "lc|be", uint8(2), true)
	f.Fuzz(func(t *testing.T, prog, flows []byte, names string, cpus uint8, instants bool) {
		events := fuzzEvents(prog)
		appNames := strings.Split(names, "|")
		matchOracle(t, events, ExportConfig{
			NumCPUs:  int(cpus % 12),
			AppNames: appNames,
			Instants: instants,
			Flows:    fuzzFlows(flows, events, appNames),
		})
	})
}

// fuzzEvents decodes prog six bytes per event: the kind (every trace.Kind
// and a few past the last), the CPU in [-2, 8), the task, the app in
// [-4, 4], the Arg in [-9, 9] (covering every inject code and unknown
// ones), and a signed time step. Zero steps make zero-length slices;
// negative ones make negative times and durations.
func fuzzEvents(prog []byte) []trace.Event {
	var events []trace.Event
	var at simtime.Time
	for ; len(prog) >= 6; prog = prog[6:] {
		step := simtime.Time(int8(prog[5]))
		at += step * step * step * 1237
		events = append(events, trace.Event{
			At:   at,
			Kind: trace.Kind(prog[0] % 18),
			CPU:  int(prog[1]%10) - 2,
			Task: int(int8(prog[2])),
			App:  int(int8(prog[3])) % 5,
			Arg:  int64(int8(prog[4])) % 10,
		})
	}
	return events
}

// fuzzFlows decodes journeys from b: an ID byte (0 stays 0) and a point
// count in [0, 5], then three bytes per point: the event whose time it
// starts from, a signed offset that can push it out of the window, and a
// CPU in [-2, 8). Each journey is named after an app name.
func fuzzFlows(b []byte, events []trace.Event, names []string) []FlowJourney {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	var flows []FlowJourney
	for len(b) > 0 {
		id := uint64(next())
		fj := FlowJourney{ID: id * 7919, Name: names[int(id)%len(names)]}
		for n := int(next() % 6); n > 0; n-- {
			var at simtime.Time
			if i := int(next()); len(events) > 0 {
				at = events[i%len(events)].At
			}
			at += simtime.Time(int8(next()))
			fj.Points = append(fj.Points, FlowPoint{At: at, CPU: int(next()%10) - 2})
		}
		flows = append(flows, fj)
	}
	return flows
}

// syntheticWindow is a deterministic observed-like window for the export
// benchmarks: n events over four CPUs and two apps, mostly dispatch /
// off-CPU pairs with wakes, steals and app switches mixed in.
func syntheticWindow(n int) []trace.Event {
	r := rng.New(1)
	events := make([]trace.Event, 0, n)
	var at simtime.Time
	offCPU := []trace.Kind{trace.Preempt, trace.Yield, trace.Block, trace.Sleep}
	for len(events) < n {
		at += simtime.Time(100 + r.Intn(20000))
		cpu, app, task := r.Intn(4), r.Intn(2), r.Intn(12)
		events = append(events,
			trace.Event{At: at, Kind: trace.Wake, CPU: -1, Task: task, App: app},
			trace.Event{At: at + 300, Kind: trace.Dispatch, CPU: cpu, Task: task, App: app},
			trace.Event{At: at + 5000, Kind: offCPU[r.Intn(len(offCPU))], CPU: cpu, Task: task, App: app})
		if r.Intn(8) == 0 {
			events = append(events, trace.Event{At: at + 5000, Kind: trace.Steal, CPU: cpu, Task: task, App: app})
		}
	}
	return events
}

var benchCfg = ExportConfig{NumCPUs: 4, AppNames: []string{"lc", "batch"}, Instants: true}

func TestSyntheticWindowMatchesOracle(t *testing.T) {
	matchOracle(t, syntheticWindow(5000), benchCfg)
}

// BenchmarkWritePerfetto and BenchmarkPerfettoOracle compare the streaming
// export with the reflected one on the same 50k-event window.
func BenchmarkWritePerfetto(b *testing.B) {
	events := syntheticWindow(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePerfetto(io.Discard, events, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfettoOracle(b *testing.B) {
	events := syntheticWindow(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := json.NewEncoder(io.Discard).Encode(BuildPerfetto(events, benchCfg)); err != nil {
			b.Fatal(err)
		}
	}
}
