package simtime

// HeapClock is the original binary-heap event queue, kept as the reference
// implementation for the pooled timer-wheel Clock. It allocates one
// *HeapEvent per schedule and pays O(log n) heap ops per operation;
// FuzzClockMatchesHeap asserts that Clock dispatches the exact same
// (deadline, sequence) order as this implementation, and BenchmarkClockHeap
// keeps its cost visible.

// HeapEvent is a scheduled callback in a HeapClock. Events with equal
// deadlines fire in the order they were scheduled (FIFO by sequence).
type HeapEvent struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int // heap index; -1 when not queued
	dead bool
}

// At reports the deadline of the event.
func (e *HeapEvent) At() Time { return e.at }

// HeapClock owns virtual time and a pending-event binary heap.
type HeapClock struct {
	now    Time
	seq    uint64
	heap   []*HeapEvent
	nEvent uint64
}

// NewHeapClock returns a heap clock at time zero with an empty queue.
func NewHeapClock() *HeapClock { return &HeapClock{} }

// Now reports the current virtual time.
func (c *HeapClock) Now() Time { return c.now }

// Dispatched reports how many events have been dispatched so far.
func (c *HeapClock) Dispatched() uint64 { return c.nEvent }

// Pending reports the number of events currently queued.
func (c *HeapClock) Pending() int { return len(c.heap) }

// At schedules fn to run at absolute time at, panicking on the past.
func (c *HeapClock) At(at Time, fn func()) *HeapEvent {
	if at < c.now {
		panic("simtime: scheduling event before now")
	}
	c.seq++
	e := &HeapEvent{at: at, seq: c.seq, fn: fn}
	c.push(e)
	return e
}

// After schedules fn to run d nanoseconds from now.
func (c *HeapClock) After(d Duration, fn func()) *HeapEvent {
	if d < 0 {
		panic("simtime: negative delay")
	}
	return c.At(c.now+d, fn)
}

// Cancel removes a pending event, reporting false if it already fired or
// was already cancelled.
func (c *HeapClock) Cancel(e *HeapEvent) bool {
	if e == nil || e.dead || e.idx < 0 {
		return false
	}
	e.dead = true
	c.remove(e)
	return true
}

// Step dispatches the earliest pending event, advancing time to its
// deadline. It reports false when the queue is empty.
func (c *HeapClock) Step() bool {
	for len(c.heap) > 0 {
		e := c.pop()
		if e.dead {
			continue
		}
		if e.at < c.now {
			panic("simtime: heap yielded event in the past")
		}
		c.now = e.at
		c.nEvent++
		e.fn()
		return true
	}
	return false
}

// Run dispatches events until the queue drains or virtual time would exceed
// horizon. It returns the time of the last dispatched event.
func (c *HeapClock) Run(horizon Time) Time {
	for len(c.heap) > 0 {
		if e := c.heap[0]; e.at > horizon {
			break
		}
		c.Step()
	}
	return c.now
}

// RunUntil dispatches events while pred returns false, stopping at horizon.
// It reports whether pred became true.
func (c *HeapClock) RunUntil(horizon Time, pred func() bool) bool {
	for !pred() {
		if len(c.heap) == 0 || c.heap[0].at > horizon {
			return false
		}
		c.Step()
	}
	return true
}

// min-heap by (at, seq).

func (c *HeapClock) less(i, j int) bool {
	a, b := c.heap[i], c.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *HeapClock) swap(i, j int) {
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.heap[i].idx = i
	c.heap[j].idx = j
}

func (c *HeapClock) push(e *HeapEvent) {
	e.idx = len(c.heap)
	c.heap = append(c.heap, e)
	c.up(e.idx)
}

func (c *HeapClock) pop() *HeapEvent {
	e := c.heap[0]
	n := len(c.heap) - 1
	c.swap(0, n)
	c.heap[n] = nil
	c.heap = c.heap[:n]
	if n > 0 {
		c.down(0)
	}
	e.idx = -1
	return e
}

func (c *HeapClock) remove(e *HeapEvent) {
	i := e.idx
	n := len(c.heap) - 1
	if i < 0 || i > n || c.heap[i] != e {
		return
	}
	c.swap(i, n)
	c.heap[n] = nil
	c.heap = c.heap[:n]
	if i < n {
		c.down(i)
		c.up(i)
	}
	e.idx = -1
}

func (c *HeapClock) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *HeapClock) down(i int) {
	n := len(c.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && c.less(l, least) {
			least = l
		}
		if r < n && c.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		c.swap(i, least)
		i = least
	}
}
