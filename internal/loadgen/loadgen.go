// Package loadgen is the open-loop load generator used throughout the
// paper's evaluation (§5.2, §5.3): requests arrive in a Poisson process at
// a configured rate regardless of server progress — the standard
// methodology for measuring tail latency, since closed-loop clients hide
// queueing collapse.
package loadgen

import (
	"skyloft/internal/rng"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

// Class describes one request class in a mix.
type Class struct {
	Name    string
	Weight  float64  // relative frequency
	Service rng.Dist // service-time distribution
}

// Request is one generated request. Seq is the injection sequence number
// (1-based, assigned in arrival order) — the request identity that the
// causal tracer keys direct-injection journeys on, and the ID that would
// propagate across machine boundaries in a cluster-scale simulation.
type Request struct {
	At      simtime.Time
	Seq     uint64
	Class   int
	Service simtime.Duration
	Flow    uint64
}

// Gen produces an open-loop request stream.
type Gen struct {
	classes []Class
	cum     []float64
	rate    float64
	r       *rng.Rand
	flows   int
	count   uint64
	limit   uint64
	stopped bool
}

// New creates a generator. rate is requests per virtual second; flows is
// the number of distinct connections to spread requests over (drives RSS).
func New(rate float64, classes []Class, flows int, seed uint64) *Gen {
	if rate <= 0 || len(classes) == 0 {
		panic("loadgen: need positive rate and at least one class")
	}
	if flows <= 0 {
		flows = 1
	}
	g := &Gen{classes: classes, rate: rate, r: rng.New(seed ^ 0x10AD), flows: flows}
	var total float64
	for _, c := range classes {
		if c.Weight <= 0 {
			panic("loadgen: class weights must be positive")
		}
		total += c.Weight
	}
	cum := 0.0
	for _, c := range classes {
		cum += c.Weight / total
		g.cum = append(g.cum, cum)
	}
	g.cum[len(g.cum)-1] = 1
	return g
}

// MeanService reports the mix's mean service time — used to convert load
// factors into arrival rates (capacity = cores / mean service).
func MeanService(classes []Class) simtime.Duration {
	var total, mean float64
	for _, c := range classes {
		total += c.Weight
	}
	for _, c := range classes {
		mean += c.Weight / total * float64(c.Service.Mean())
	}
	return simtime.Duration(mean)
}

// Count reports requests generated so far.
func (g *Gen) Count() uint64 { return g.count }

// Stop halts generation after the current event.
func (g *Gen) Stop() { g.stopped = true }

// Run schedules arrivals on clock until limit requests have been generated
// (0 = unlimited), invoking deliver for each.
func (g *Gen) Run(clock *simtime.Clock, limit uint64, deliver func(Request)) {
	g.limit = limit
	gap := simtime.Duration(float64(simtime.Second) / g.rate)
	if gap < 1 {
		gap = 1
	}
	exp := rng.Exponential{MeanVal: gap}
	// One arrival is pending at a time, so a single reusable callback with
	// the next deadline in nextAt replaces a closure pair per request.
	var nextAt simtime.Time
	var fire func()
	fire = func() {
		if g.stopped || (g.limit > 0 && g.count >= g.limit) {
			return
		}
		at := nextAt
		g.count++
		deliver(g.next(at))
		nextAt = at + exp.Sample(g.r) + 1
		clock.At(nextAt, fire)
	}
	nextAt = clock.Now() + exp.Sample(g.r) + 1
	clock.At(nextAt, fire)
}

func (g *Gen) next(at simtime.Time) Request {
	u := g.r.Float64()
	cls := 0
	for i, c := range g.cum {
		if u <= c {
			cls = i
			break
		}
	}
	return Request{
		At:      at,
		Seq:     g.count,
		Class:   cls,
		Service: g.classes[cls].Service.Sample(g.r),
		Flow:    uint64(g.r.Intn(g.flows)),
	}
}

// Recorder accumulates per-request results on the measurement side.
type Recorder struct {
	Lat      *stats.Hist     // sojourn time (arrival → completion)
	Slow     *stats.Slowdown // sojourn / service
	ByClass  map[int]*stats.Hist
	Done     uint64
	Started  simtime.Time
	warmup   simtime.Time
	finished simtime.Time
}

// NewRecorder creates a recorder that ignores completions before warmup
// (absolute virtual time), eliminating cold-start transients.
func NewRecorder(warmup simtime.Time) *Recorder {
	return &Recorder{
		Lat:     stats.NewHist(),
		Slow:    stats.NewSlowdown(),
		ByClass: make(map[int]*stats.Hist),
		warmup:  warmup,
	}
}

// Record logs one completed request.
func (r *Recorder) Record(now simtime.Time, arrive simtime.Time, service simtime.Duration, class int) {
	if now < r.warmup {
		return
	}
	if r.Done == 0 {
		r.Started = now
	}
	r.Done++
	r.finished = now
	sojourn := now - arrive
	r.Lat.Record(sojourn)
	r.Slow.Record(sojourn, service)
	h := r.ByClass[class]
	if h == nil {
		h = stats.NewHist()
		r.ByClass[class] = h
	}
	h.Record(sojourn)
}

// Throughput reports completed requests per second over the measurement
// window.
func (r *Recorder) Throughput() float64 {
	window := r.finished - r.Started
	if window <= 0 || r.Done < 2 {
		return 0
	}
	return float64(r.Done-1) * float64(simtime.Second) / float64(window)
}
