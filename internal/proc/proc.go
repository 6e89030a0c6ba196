// Package proc implements deterministic simulated threads on top of Go
// goroutines. A P is a coroutine: exactly one P (or the simulation driver)
// executes at any instant, with strict channel handoff, so simulations stay
// fully deterministic regardless of GOMAXPROCS. Application code written
// against P reads like ordinary sequential thread code — it "runs" on the
// simulated machine by issuing requests (run for d, block, wake x) that the
// hosting scheduler engine services in virtual time.
package proc

import "fmt"

// Request is an operation a simulated thread asks its engine to perform.
// Engines define their own request types; proc treats them opaquely.
type Request any

// ExitRequest is delivered to the engine when the thread's body returns.
type ExitRequest struct{}

// P is one simulated thread backed by a goroutine. The goroutine survives
// the thread body: after the body returns (or the P is killed) it parks
// waiting for the next life, so a Pool can reuse the goroutine and its
// channels for a later thread — thread-per-request workloads create
// millions of short-lived threads, and the goroutine + two channels were
// the dominant allocation of the whole simulator.
type P struct {
	name    string
	resume  chan any     // engine -> thread: response to last request
	yield   chan Request // thread -> engine: next request
	body    func(*Ctx)
	started bool
	done    bool
	killed  bool
}

// killSentinel unwinds a killed thread's body.
type killSentinel struct{}

// stopSentinel makes a parked goroutine exit for good (Pool.Drain).
type stopSentinel struct{}

// New creates a simulated thread that will execute body. The goroutine is
// not started until the first Resume.
func New(name string, body func(*Ctx)) *P {
	p := newP()
	p.name, p.body = name, body
	return p
}

func newP() *P {
	p := &P{
		resume: make(chan any),
		yield:  make(chan Request),
	}
	go p.loop()
	return p
}

// loop runs thread lives: each iteration waits for the first Resume of a
// life, executes the body, reports exit, and parks for possible reuse.
func (p *P) loop() {
	ctx := Ctx{p: p}
	for {
		v := <-p.resume // first Resume of a life (value ignored), or a sentinel
		switch v.(type) {
		case killSentinel:
			continue // killed before ever running; park for reuse
		case stopSentinel:
			return
		}
		if p.runBody(&ctx) {
			p.done = true
			p.yield <- ExitRequest{}
		}
		// Killed mid-body: Kill's send is not answered with a yield. Either
		// way the goroutine parks above, ready for a new life or a stop.
	}
}

// runBody executes the current body, absorbing the kill unwind.
func (p *P) runBody(c *Ctx) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); ok {
				return // killed by engine; completed stays false
			}
			panic(r) // real bug in thread body: propagate
		}
	}()
	p.body(c)
	return true
}

// Name reports the thread's debug name.
func (p *P) Name() string { return p.name }

// Done reports whether the thread body has returned.
func (p *P) Done() bool { return p.done }

// Resume runs the thread until it issues its next request, passing v as the
// response to the previous request (ignored on first resume). It returns
// the new request; ExitRequest{} means the body returned. Resume panics if
// called on a finished or killed thread.
func (p *P) Resume(v any) Request {
	if p.done || p.killed {
		panic(fmt.Sprintf("proc: Resume on finished thread %q", p.name))
	}
	p.started = true
	p.resume <- v
	return <-p.yield
}

// Kill terminates a parked (or never-started) thread's body. It is a no-op
// for finished or already-killed threads. The engine must only call Kill
// while the thread is parked, which is always the case under the strict-
// handoff discipline. The goroutine itself survives, parked for reuse.
func (p *P) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.resume <- killSentinel{}
	// The body unwinds via the sentinel; no yield follows.
}

// Stop permanently ends a finished or killed P's goroutine. Pools call it
// when draining; a P that is neither pooled nor stopped parks one goroutine
// until process exit.
func (p *P) Stop() {
	if !p.done && !p.killed {
		panic(fmt.Sprintf("proc: Stop on live thread %q", p.name))
	}
	p.resume <- stopSentinel{}
}

// Pool recycles finished Ps so later threads reuse the goroutine and its
// channel pair. It is single-owner (an engine); it performs no locking.
type Pool struct {
	free []*P
}

// Get returns a P primed with body, reusing a pooled goroutine if one is
// free.
func (pl *Pool) Get(name string, body func(*Ctx)) *P {
	var p *P
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.started, p.done, p.killed = false, false, false
	} else {
		p = newP()
	}
	p.name, p.body = name, body
	return p
}

// Put returns a finished or killed P for reuse. The caller must not touch
// p afterwards.
func (pl *Pool) Put(p *P) {
	if !p.done && !p.killed {
		panic(fmt.Sprintf("proc: Put of live thread %q", p.name))
	}
	p.body = nil
	pl.free = append(pl.free, p)
}

// Size reports how many Ps are parked in the pool.
func (pl *Pool) Size() int { return len(pl.free) }

// Drain stops every pooled goroutine; engines call it at Shutdown so no
// parked goroutines outlive the simulation.
func (pl *Pool) Drain() {
	for _, p := range pl.free {
		p.Stop()
	}
	pl.free = nil
}

// Ctx is the thread-side handle used inside a thread body.
type Ctx struct {
	p *P
}

// Ask parks the thread with a request and returns the engine's response.
// If the engine kills the thread while parked, Ask never returns (the
// body unwinds).
func (c *Ctx) Ask(r Request) any {
	c.p.yield <- r
	v := <-c.p.resume
	if _, ok := v.(killSentinel); ok {
		panic(killSentinel{})
	}
	return v
}

// Name reports the thread's debug name.
func (c *Ctx) Name() string { return c.p.name }
