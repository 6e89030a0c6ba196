package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"skyloft/internal/simtime"
)

// CoreState classifies what a core is doing at a sampling instant.
type CoreState uint8

const (
	// StateIdle: the core has no work.
	StateIdle CoreState = iota
	// StateKernel: the core is occupied by scheduler/runtime/interrupt
	// code rather than application work (pick loops, context switches,
	// handler bodies, runtime ops, fault stalls).
	StateKernel
	// StateApp: the core is executing an application's run segment.
	StateApp
)

// CoreSample is one core's state at a sampling instant. App is meaningful
// only when State == StateApp.
type CoreSample struct {
	State CoreState
	App   int
}

// Profiler samples core states on the virtual clock at a fixed interval and
// accumulates per-core busy/idle/kernel/per-app time shares — the paper's
// CPU-share ablation view (Fig. 7c) as a continuous profile. The sampler
// callback must be read-only: the profiler adds clock events but never
// changes engine state, so the scheduling event stream is unperturbed.
type Profiler struct {
	clock    *simtime.Clock
	interval simtime.Duration
	sample   func(core int) CoreSample

	cores   int
	running bool
	tickFn  func()

	samples uint64
	idle    []uint64   // per core
	kernel  []uint64   // per core
	app     [][]uint64 // per core, indexed by app ID (grown on demand)
}

// NewProfiler builds a profiler over cores 0..cores-1, reading states from
// sample. A non-positive interval defaults to 1µs (fine enough to resolve
// the µs-scale quanta every engine in this repo schedules with).
func NewProfiler(clock *simtime.Clock, cores int, interval simtime.Duration, sample func(core int) CoreSample) *Profiler {
	if interval <= 0 {
		interval = simtime.Microsecond
	}
	p := &Profiler{
		clock:    clock,
		interval: interval,
		sample:   sample,
		cores:    cores,
		idle:     make([]uint64, cores),
		kernel:   make([]uint64, cores),
		app:      make([][]uint64, cores),
	}
	p.tickFn = p.tick
	return p
}

// Start schedules the recurring sampler; the first sample lands one
// interval in.
func (p *Profiler) Start() {
	if p.running {
		return
	}
	p.running = true
	// The sampler schedules its own tick train; sampling instants are part
	// of the configured observation, not a perturbation of sim state.
	//simlint:allow attachonly the profiler owns its periodic sampling events
	p.clock.After(p.interval, p.tickFn)
}

// Stop halts sampling after the next pending tick (the pending clock event
// fires but records nothing).
func (p *Profiler) Stop() { p.running = false }

func (p *Profiler) tick() {
	if !p.running {
		return
	}
	p.samples++
	for i := 0; i < p.cores; i++ {
		s := p.sample(i)
		switch s.State {
		case StateIdle:
			p.idle[i]++
		case StateKernel:
			p.kernel[i]++
		case StateApp:
			for s.App >= len(p.app[i]) {
				p.app[i] = append(p.app[i], 0)
			}
			p.app[i][s.App]++
		}
	}
	//simlint:allow attachonly the profiler owns its periodic sampling events
	p.clock.After(p.interval, p.tickFn)
}

// Samples reports how many sampling instants have been recorded.
func (p *Profiler) Samples() uint64 { return p.samples }

// CoreOccupancy is one core's accumulated time shares (fractions of the
// sampled interval; Busy = Kernel + sum of Apps).
type CoreOccupancy struct {
	CPU     int       `json:"cpu"`
	Samples uint64    `json:"samples"`
	Idle    float64   `json:"idle"`
	Kernel  float64   `json:"kernel"`
	Apps    []float64 `json:"apps"` // indexed by app ID
}

// Busy reports the non-idle share.
func (o CoreOccupancy) Busy() float64 { return 1 - o.Idle }

// Report computes the per-core shares.
func (p *Profiler) Report() []CoreOccupancy {
	out := make([]CoreOccupancy, p.cores)
	for i := 0; i < p.cores; i++ {
		o := CoreOccupancy{CPU: i, Samples: p.samples}
		if p.samples > 0 {
			n := float64(p.samples)
			o.Idle = float64(p.idle[i]) / n
			o.Kernel = float64(p.kernel[i]) / n
			o.Apps = make([]float64, len(p.app[i]))
			for a, c := range p.app[i] {
				o.Apps[a] = float64(c) / n
			}
		}
		out[i] = o
	}
	return out
}

// OccupancySnapshot is the machine-readable form of the profile — the same
// numbers WriteReport prints, shaped for BENCH_skyloft.json. It marshals
// deterministically (no maps, no wall-clock values).
type OccupancySnapshot struct {
	Samples  uint64           `json:"samples"`
	Interval simtime.Duration `json:"interval_ns"`
	Cores    []CoreOccupancy  `json:"cores"`
}

// Snapshot captures the profile as a machine-readable snapshot.
func (p *Profiler) Snapshot() *OccupancySnapshot {
	return &OccupancySnapshot{
		Samples:  p.samples,
		Interval: p.interval,
		Cores:    p.Report(),
	}
}

// WriteJSON writes the snapshot as indented JSON (byte-stable for identical
// profiles).
func (s *OccupancySnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteReport renders the occupancy profile, one line per core; appNames
// labels the per-app columns when provided.
func (p *Profiler) WriteReport(w io.Writer, appNames []string) error {
	if _, err := fmt.Fprintf(w, "occupancy: %d samples every %v\n", p.samples, p.interval); err != nil {
		return err
	}
	for _, o := range p.Report() {
		line := fmt.Sprintf("  cpu %-3d busy=%5.1f%% idle=%5.1f%% kernel=%5.1f%%",
			o.CPU, 100*o.Busy(), 100*o.Idle, 100*o.Kernel)
		for a, share := range o.Apps {
			name := fmt.Sprintf("app%d", a)
			if a < len(appNames) && appNames[a] != "" {
				name = appNames[a]
			}
			line += fmt.Sprintf(" %s=%5.1f%%", name, 100*share)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
