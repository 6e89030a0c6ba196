package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockOrdering(t *testing.T) {
	c := NewClock()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		c.At(at, func() { got = append(got, c.Now()) })
	}
	for c.Step() {
	}
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClockFIFOTieBreak(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(100, func() { order = append(order, i) })
	}
	for c.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events fired out of order: %v", order)
		}
	}
}

func TestClockCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e := c.At(10, func() { fired = true })
	if !c.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	if c.Cancel(Event{}) {
		t.Fatal("Cancel of zero handle returned true")
	}
	for c.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// A handle to a fired event must stay dead even after its store slot is
// recycled by later schedules (the generation check).
func TestClockStaleCancelAfterReuse(t *testing.T) {
	c := NewClock()
	stale := c.At(10, func() {})
	if !c.Step() {
		t.Fatal("no event to fire")
	}
	fresh := c.At(20, func() {})
	if c.Cancel(stale) {
		t.Fatal("Cancel of fired event returned true after slot reuse")
	}
	if c.Pending() != 1 {
		t.Fatalf("stale Cancel disturbed the queue: pending=%d", c.Pending())
	}
	if !c.Cancel(fresh) {
		t.Fatal("Cancel of live event returned false")
	}
}

func TestClockCancelMiddleOfQueue(t *testing.T) {
	c := NewClock()
	var events []Event
	var fired []Time
	for i := 1; i <= 20; i++ {
		// Spread across wheel and overflow: half near, half far.
		at := Time(i * 10)
		if i%2 == 0 {
			at = Time(i) * Millisecond
		}
		events = append(events, c.At(at, func() { fired = append(fired, c.Now()) }))
	}
	// Cancel every third event.
	for i := 0; i < len(events); i += 3 {
		c.Cancel(events[i])
	}
	for c.Step() {
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of order after cancellations: %v", fired)
	}
	if len(fired) != 13 {
		t.Fatalf("fired %d events, want 13", len(fired))
	}
}

func TestClockAfterChaining(t *testing.T) {
	c := NewClock()
	var trace []Time
	var step func()
	step = func() {
		trace = append(trace, c.Now())
		if len(trace) < 5 {
			c.After(7, step)
		}
	}
	c.After(7, step)
	for c.Step() {
	}
	for i, at := range trace {
		if want := Time(7 * (i + 1)); at != want {
			t.Errorf("chain step %d at %v, want %v", i, at, want)
		}
	}
}

func TestClockPastPanics(t *testing.T) {
	c := NewClock()
	c.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		c.At(50, func() {})
	})
	for c.Step() {
	}
}

func TestRunHorizon(t *testing.T) {
	c := NewClock()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		c.At(at, func() { fired = append(fired, at) })
	}
	c.Run(25)
	if len(fired) != 2 {
		t.Fatalf("Run(25) fired %d events, want 2", len(fired))
	}
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	c := NewClock()
	count := 0
	for i := 1; i <= 10; i++ {
		c.At(Time(i), func() { count++ })
	}
	ok := c.RunUntil(Infinity, func() bool { return count >= 4 })
	if !ok || count != 4 {
		t.Fatalf("RunUntil stopped at count=%d ok=%v, want 4/true", count, ok)
	}
	if c.RunUntil(5, func() bool { return count >= 100 }) {
		t.Fatal("RunUntil reported success past horizon")
	}
}

// Far-future events must sit in the overflow heap and still dispatch in
// exact order as the wheel window catches up to them.
func TestClockOverflowMigration(t *testing.T) {
	c := NewClock()
	var got []Time
	deadlines := []Time{
		5, 100, 300 * Microsecond, 263 * Microsecond, 10 * Millisecond,
		262143, 262144, 262145, // straddle the initial wheel window edge
		Second, 90, 500 * Microsecond,
	}
	for _, at := range deadlines {
		c.At(at, func() { got = append(got, c.Now()) })
	}
	if c.Pending() != len(deadlines) {
		t.Fatalf("pending=%d want %d", c.Pending(), len(deadlines))
	}
	for c.Step() {
	}
	want := append([]Time(nil), deadlines...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// The pooled store must recycle fired and cancelled events: its size is
// bounded by the high-water mark of pending events, not total throughput.
func TestClockStoreRecycles(t *testing.T) {
	c := NewClock()
	var rearm func()
	n := 0
	rearm = func() {
		if n++; n < 10000 {
			c.After(100, rearm)
		}
	}
	c.After(100, rearm)
	e := c.After(50*Millisecond, func() {})
	c.Cancel(e)
	for c.Step() {
	}
	if c.StoreSize() > 8 {
		t.Fatalf("store grew to %d slots for 1-pending workload", c.StoreSize())
	}
	if c.StoreSize()-c.StoreFree() != c.Pending() {
		t.Fatalf("store leak: size=%d free=%d pending=%d",
			c.StoreSize(), c.StoreFree(), c.Pending())
	}
}

// Property: the event queue is a faithful priority queue — any random mix of
// schedules and cancels dispatches the surviving events in (time, insertion)
// order.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewClock()
		type rec struct {
			at  Time
			seq int
		}
		var want []rec
		var fired []rec
		var events []Event
		var recs []rec
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			at := Time(r.Intn(1000))
			rc := rec{at: at, seq: i}
			ev := c.At(at, func() { fired = append(fired, rc) })
			events = append(events, ev)
			recs = append(recs, rc)
		}
		cancelled := map[int]bool{}
		for i := 0; i < count/3; i++ {
			k := r.Intn(count)
			if c.Cancel(events[k]) {
				cancelled[k] = true
			}
		}
		for i, rc := range recs {
			if !cancelled[i] {
				want = append(want, rc)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		for c.Step() {
		}
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzClockMatchesHeap is the differential test of the timer-wheel Clock
// against the reference binary-heap HeapClock. The input is an operation
// program — schedules spanning dense ties, the wheel window and the
// overflow heap; cancels; Step; Run to a horizon; RunUntil a dispatch
// count — and callbacks read the same program to reschedule and cancel
// from inside dispatch. Both clocks must fire the same events in the same
// order and agree on every Run/RunUntil/Cancel result, the final time and
// the pending count. The seed corpus lives in testdata/fuzz.
func FuzzClockMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 1, 0, 0, 2, 0, 0, 3, 2, 4, 1, 5, 3, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		wheel, heap := wheelOps(), heapOps()
		wantLog := replayProgram(heap, prog)
		gotLog := replayProgram(wheel, prog)
		if len(gotLog) != len(wantLog) {
			t.Fatalf("wheel logged %d entries, heap %d\nwheel %v\nheap  %v",
				len(gotLog), len(wantLog), gotLog, wantLog)
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("divergence at entry %d: wheel=%d heap=%d\nwheel %v\nheap  %v",
					i, gotLog[i], wantLog[i], gotLog, wantLog)
			}
		}
	})
}

// clockOps adapts Clock and HeapClock to one surface so replayProgram
// drives both through identical operation sequences.
type clockOps struct {
	now        func() Time
	at         func(Time, func()) func() bool // returns the event's canceller
	step       func() bool
	run        func(Time) Time
	runUntil   func(Time, func() bool) bool
	dispatched func() uint64
	pending    func() int
}

func wheelOps() clockOps {
	c := NewClock()
	return clockOps{
		now: c.Now,
		at: func(at Time, fn func()) func() bool {
			e := c.At(at, fn)
			return func() bool { return c.Cancel(e) }
		},
		step: c.Step, run: c.Run, runUntil: c.RunUntil,
		dispatched: c.Dispatched, pending: c.Pending,
	}
}

func heapOps() clockOps {
	c := NewHeapClock()
	return clockOps{
		now: c.Now,
		at: func(at Time, fn func()) func() bool {
			e := c.At(at, fn)
			return func() bool { return c.Cancel(e) }
		},
		step: c.Step, run: c.Run, runUntil: c.RunUntil,
		dispatched: c.Dispatched, pending: c.Pending,
	}
}

// replayProgram interprets prog against one clock and returns its log:
// fired event IDs (positive) interleaved with operation results (encoded
// non-positive), closed by the final time, dispatch and pending counts.
// Reschedule depth is capped, so every program terminates.
func replayProgram(c clockOps, prog []byte) []int64 {
	pc := 0
	next := func() byte {
		if pc >= len(prog) {
			return 0
		}
		b := prog[pc]
		pc++
		return b
	}
	// offset draws a delay from one of four regimes: dense 64 ns ties,
	// the wheel window, just past it (overflow), and far overflow.
	offset := func() Time {
		class, hi, lo := next(), next(), next()
		v := Time(hi)<<8 | Time(lo)
		switch class % 4 {
		case 0:
			return Time(lo%4) * 64
		case 1:
			return v * 3
		case 2:
			return 200_000 + v*30
		default:
			return Time(hi%50) * Millisecond
		}
	}
	var log []int64
	var cancels []func() bool
	id := int64(0)
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		myID := id
		cancels = append(cancels, c.at(c.now()+offset(), func() {
			log = append(log, myID)
			b := next()
			if b&1 != 0 && depth < 3 {
				schedule(depth + 1)
			}
			if b&2 != 0 && len(cancels) > 0 {
				cancels[int(next())%len(cancels)]()
			}
		}))
	}
	flag := func(ok bool) int64 {
		if ok {
			return -1
		}
		return 0
	}
	for pc < len(prog) {
		switch next() % 5 {
		case 0:
			schedule(0)
		case 1:
			if len(cancels) > 0 {
				log = append(log, flag(cancels[int(next())%len(cancels)]()))
			}
		case 2:
			log = append(log, flag(c.step()))
		case 3:
			log = append(log, -int64(c.run(c.now()+offset())))
		case 4:
			target := c.dispatched() + uint64(next()%16)
			horizon := c.now() + offset()
			log = append(log, flag(c.runUntil(horizon, func() bool {
				return c.dispatched() >= target
			})), -int64(c.now()))
		}
	}
	for c.step() {
	}
	return append(log, -int64(c.now()), -int64(c.dispatched()), -int64(c.pending()))
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
