package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"skyloft/internal/trace"
)

// Flags is the standard observability flag set shared by the cmds
// (skyloft-trace, skyloft-bench, schbench): -trace-out, -metrics-out,
// -doctor-out, -occupancy, plus the live-telemetry trio -live-out,
// -live-window, -live-http, the flight recorder's -flight-dir, and the
// host profiles -cpuprofile and -memprofile. Bind before flag.Parse. Every
// *-out flag accepts "-" for stdout.
type Flags struct {
	TraceOut   string
	MetricsOut string
	DoctorOut  string
	Occupancy  bool

	// Live telemetry bus (internal/obs/live): NDJSON stream destination,
	// snapshot window width, HTTP endpoint address, and the flight
	// recorder's post-mortem bundle directory.
	LiveOut    string
	LiveWindow time.Duration
	LiveHTTP   string
	FlightDir  string

	// Causal request tracer (internal/obs/causal): exemplar document
	// destination for skyloft-explain.
	CausalOut string

	// Host profiles of the simulator process itself (runtime/pprof, for
	// go tool pprof): the CPU profile and the heap profile written at
	// exit. They profile the host, not the simulated system.
	CPUProfile string
	MemProfile string
	cpuOut     *os.File
}

// BindFlags registers the observability flags on the default CommandLine
// flag set.
func BindFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.TraceOut, "trace-out", "", "write a Perfetto/Chrome trace_event JSON file (\"-\" for stdout)")
	flag.StringVar(&f.MetricsOut, "metrics-out", "", "write a metrics-registry snapshot as JSON (\"-\" for stdout)")
	flag.StringVar(&f.DoctorOut, "doctor-out", "", "write the sched-doctor diagnosis as JSON (\"-\" for stdout)")
	flag.BoolVar(&f.Occupancy, "occupancy", false, "print the per-core occupancy profile")
	flag.StringVar(&f.LiveOut, "live-out", "", "stream live telemetry snapshots as NDJSON (\"-\" for stdout)")
	flag.DurationVar(&f.LiveWindow, "live-window", 0, "live snapshot window width in virtual time (default 1ms)")
	flag.StringVar(&f.LiveHTTP, "live-http", "", "serve live snapshots over HTTP on this address (e.g. 127.0.0.1:7077)")
	flag.StringVar(&f.FlightDir, "flight-dir", "", "flight recorder: dump a post-mortem bundle into this directory when a detector fires")
	flag.StringVar(&f.CausalOut, "causal-out", "", "write the causal tracer's exemplar document as JSON for skyloft-explain (\"-\" for stdout)")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host CPU profile of this process to this file (go tool pprof)")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write a host heap profile of this process to this file at exit (go tool pprof)")
	return f
}

// StartProfiles starts the -cpuprofile host CPU profile (no-op when unset).
// Call it right after flag.Parse and pair it with StopProfiles.
func (f *Flags) StartProfiles() error {
	if f.CPUProfile == "" {
		return nil
	}
	out, err := os.Create(f.CPUProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return err
	}
	f.cpuOut = out
	return nil
}

// StopProfiles ends the CPU profile StartProfiles began and writes the
// -memprofile heap profile (each a no-op when its flag is unset). The heap
// profile carries both in-use and cumulative allocation samples
// (go tool pprof -sample_index=alloc_space).
func (f *Flags) StopProfiles() error {
	if f.cpuOut != nil {
		pprof.StopCPUProfile()
		err := f.cpuOut.Close()
		f.cpuOut = nil
		if err != nil {
			return err
		}
	}
	if f.MemProfile == "" {
		return nil
	}
	out, err := os.Create(f.MemProfile)
	if err != nil {
		return err
	}
	runtime.GC() // bring the profile's in-use figures up to date
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Active reports whether any observability output was requested.
func (f *Flags) Active() bool {
	return f.TraceOut != "" || f.MetricsOut != "" || f.DoctorOut != "" || f.Occupancy || f.LiveActive() || f.CausalActive()
}

// LiveActive reports whether the live telemetry bus should attach.
func (f *Flags) LiveActive() bool {
	return f.LiveOut != "" || f.LiveHTTP != "" || f.FlightDir != ""
}

// CausalActive reports whether the causal request tracer should attach.
func (f *Flags) CausalActive() bool { return f.CausalOut != "" }

// nopWriteCloser keeps stdout open when a *-out flag is "-": the emit
// helpers Close what they open, and closing os.Stdout would sabotage every
// later write to it.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// OpenOut opens an output destination: "-" means stdout (returned with a
// no-op Close), anything else is created as a file. Exported for the
// subpackages that honour the same convention (obs/live).
func OpenOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

// EmitTrace writes the event window as trace_event JSON to the -trace-out
// path (no-op when unset).
func (f *Flags) EmitTrace(events []trace.Event, cfg ExportConfig) error {
	if f.TraceOut == "" {
		return nil
	}
	out, err := OpenOut(f.TraceOut)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := WritePerfetto(out, events, cfg); err != nil {
		return err
	}
	if f.TraceOut != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d events) — open at https://ui.perfetto.dev\n",
			f.TraceOut, len(events))
	}
	return out.Close()
}

// EmitMetrics writes the registry snapshot as JSON to the -metrics-out path
// (no-op when unset).
func (f *Flags) EmitMetrics(reg *Registry) error { return emitJSON(f.MetricsOut, reg) }

// JSONReport is anything that can serialise itself as JSON — in practice
// the sched-doctor's *doctor.Report, accepted as an interface so obs does
// not import its own subpackage.
type JSONReport interface {
	WriteJSON(io.Writer) error
}

// EmitDoctor writes a doctor report as JSON to the -doctor-out path (no-op
// when unset or when r is nil).
func (f *Flags) EmitDoctor(r JSONReport) error { return emitJSON(f.DoctorOut, r) }

// EmitCausal writes a causal exemplar document as JSON to the -causal-out
// path (no-op when unset or when t is nil). Accepts the same JSONReport
// interface as EmitDoctor so obs does not import its own subpackage.
func (f *Flags) EmitCausal(t JSONReport) error { return emitJSON(f.CausalOut, t) }

// emitJSON writes r as JSON to path (no-op when path is unset or r is nil).
func emitJSON(path string, r JSONReport) error {
	if path == "" || r == nil {
		return nil
	}
	out, err := OpenOut(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := r.WriteJSON(out); err != nil {
		return err
	}
	return out.Close()
}

// EmitOccupancy prints the occupancy report to w when -occupancy was given
// (no-op otherwise).
func (f *Flags) EmitOccupancy(w io.Writer, p *Profiler, appNames []string) error {
	if !f.Occupancy || p == nil {
		return nil
	}
	return p.WriteReport(w, appNames)
}
