package bench

import (
	"skyloft/internal/apps/server"
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/loadgen"
	"skyloft/internal/netsim"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/simtime"
)

// Ablations (DESIGN.md §4): experiments probing the design choices rather
// than reproducing a specific paper figure.

// newScaledMachine builds the standard machine with every cost multiplied
// by scale (1.0 = the paper's measurements).
func newScaledMachine(scale float64) *hw.Machine {
	cfg := hw.DefaultConfig()
	if scale > 0 && scale != 1 {
		cfg.Cost = cycles.Default().Scale(scale)
	}
	return hw.NewMachine(cfg)
}

// CostSensitivity reruns the Fig. 7a Skyloft-vs-ghOSt comparison with the
// whole cost model scaled, returning p99 ratios (ghost/skyloft) per scale.
// The paper's qualitative conclusions must not hinge on the exact
// constants: the ratio should stay > 1 across a wide range.
func CostSensitivity(scales []float64, dur simtime.Duration, seed uint64) map[float64]float64 {
	load := 0.85 * Capacity(Fig7Workers, server.DispersiveClasses())
	type trial struct {
		scale float64
		sys   SynthSystem
	}
	var trials []trial
	for _, scale := range scales {
		trials = append(trials, trial{scale, SynthSkyloft}, trial{scale, SynthGhost})
	}
	points := Sweep(trials, func(t trial) LoadPoint {
		return runScaledSynth(t.sys, t.scale, load, dur, seed)
	})
	out := make(map[float64]float64)
	for i, scale := range scales {
		sky, ghost := points[2*i], points[2*i+1]
		if sky.P99 > 0 {
			out[scale] = ghost.P99 / sky.P99
		}
	}
	return out
}

func runScaledSynth(sys SynthSystem, scale float64, load float64, dur simtime.Duration, seed uint64) LoadPoint {
	cfg := SynthConfig{System: sys, Rate: load, Duration: dur, Seed: seed}
	if cfg.Quantum == 0 {
		cfg.Quantum = 30 * simtime.Microsecond
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 20 * simtime.Millisecond
	}
	cfg.machine = newScaledMachine(scale)
	return runSyntheticCentral(cfg)
}

// TimerModeResult compares periodic 100 kHz delegation against one-shot
// deadline re-arming on the RocksDB workload.
type TimerModeResult struct {
	Mode       string
	P999Slow   float64
	TimerFires uint64
	Events     uint64
}

// AblationTimerMode runs the Fig. 8b Skyloft point under both timer
// designs at the same 5 µs quantum.
func AblationTimerMode(loadFrac float64, dur simtime.Duration, seed uint64) []TimerModeResult {
	load := loadFrac * Capacity(Fig8bWorkers, server.RocksDBClasses())
	var out []TimerModeResult
	for _, mode := range []string{"periodic-100kHz", "deadline-oneshot"} {
		m := newScaledMachine(1)
		quantum := 5 * simtime.Microsecond
		var e *core.Engine
		base := core.Config{
			Machine: m, CPUs: cpuList(Fig8bWorkers), Mode: core.PerCPU,
			Policy: worksteal.New(quantum, seed),
			Costs:  core.SkyloftCosts(m.Cost), Seed: seed,
		}
		if mode == "periodic-100kHz" {
			base.TimerMode = core.TimerLAPIC
			base.TimerHz = int64(simtime.Second / quantum)
		} else {
			base.TimerMode = core.TimerDeadline
			base.DeadlineQuantum = quantum
		}
		e = core.New(base)
		app := e.NewApp("rocksdb")
		rec := loadgen.NewRecorder(20 * simtime.Millisecond)
		nic := netsim.NewNIC(m.Clock, m.Cost, e.Workers())
		server.NewThreadPerRequest(app, nic, rec, makeHandler("rocksdb"), nil)
		gen := loadgen.New(load, server.RocksDBClasses(), 4096, seed)
		server.Feed(gen, m.Clock, nic, 0)
		e.Run(simtime.Time(20*simtime.Millisecond + dur))
		gen.Stop()

		var fires uint64
		for _, id := range cpuList(Fig8bWorkers) {
			fires += m.Cores[id].Timer.Fires()
		}
		out = append(out, TimerModeResult{
			Mode:       mode,
			P999Slow:   rec.Slow.P999(),
			TimerFires: fires,
			Events:     m.Clock.Dispatched(),
		})
		e.Shutdown()
	}
	return out
}

// NetModeResult compares polling vs interrupt-driven packet delivery.
type NetModeResult struct {
	Mode string
	P99  float64 // µs
	Tput float64
	MSIs uint64
}

// AblationNetMode runs the Memcached workload with the polled DPDK-style
// datapath versus user-space MSI delivery (§6 peripheral interrupts).
func AblationNetMode(loadFrac float64, dur simtime.Duration, seed uint64) []NetModeResult {
	load := loadFrac * Capacity(Fig8aWorkers, server.USRClasses())
	var out []NetModeResult
	for _, irq := range []bool{false, true} {
		m := newScaledMachine(1)
		e := core.New(core.Config{
			Machine: m, CPUs: cpuList(Fig8aWorkers), Mode: core.PerCPU,
			Policy:    worksteal.New(0, seed),
			Costs:     core.SkyloftCosts(m.Cost),
			TimerMode: core.TimerNone, Seed: seed,
		})
		app := e.NewApp("memcached")
		rec := loadgen.NewRecorder(20 * simtime.Millisecond)
		nic := netsim.NewNIC(m.Clock, m.Cost, e.Workers())
		server.NewThreadPerRequest(app, nic, rec, makeHandler("memcached"), nil)
		mode := "polling"
		if irq {
			e.EnableNetIRQ(nic)
			mode = "interrupt"
		}
		gen := loadgen.New(load, server.USRClasses(), 4096, seed)
		server.Feed(gen, m.Clock, nic, 0)
		e.Run(simtime.Time(20*simtime.Millisecond + dur))
		gen.Stop()
		out = append(out, NetModeResult{
			Mode: mode,
			P99:  rec.Lat.P99().Micros(),
			Tput: rec.Throughput(),
			MSIs: e.NetMSIs(),
		})
		e.Shutdown()
	}
	return out
}

// AblationEngineModel compares the per-CPU and centralized models running
// the same dispersive workload with the same quantum and core budget —
// the Fig. 2a vs 2b design choice.
func AblationEngineModel(loadFrac float64, dur simtime.Duration, seed uint64) (perCPU, central LoadPoint) {
	load := loadFrac * Capacity(Fig7Workers, server.DispersiveClasses())
	central = RunSynthetic(SynthConfig{
		System: SynthSkyloft, Rate: load, Duration: dur, Seed: seed,
	})

	// Per-CPU: same 21 cores but no dedicated dispatcher — all 21 work,
	// preemption by local timers at the same 30 µs quantum.
	m := newScaledMachine(1)
	quantum := 30 * simtime.Microsecond
	e := core.New(core.Config{
		Machine: m, CPUs: cpuList(Fig7Workers + 1), Mode: core.PerCPU,
		Policy:    worksteal.New(quantum, seed),
		Costs:     core.SkyloftCosts(m.Cost),
		TimerMode: core.TimerLAPIC, TimerHz: int64(simtime.Second / quantum),
		Seed: seed,
	})
	defer e.Shutdown()
	app := e.NewApp("lc")
	rec := loadgen.NewRecorder(20 * simtime.Millisecond)
	gen := loadgen.New(load, server.DispersiveClasses(), 1024, seed)
	server.FeedDirect(gen, m.Clock, app, rec, 0, nil)
	e.Run(simtime.Time(20*simtime.Millisecond + dur))
	gen.Stop()
	perCPU = LoadPoint{
		Offered: load, Throughput: rec.Throughput(),
		P50: rec.Lat.P50().Micros(), P99: rec.Lat.P99().Micros(),
		P999Slow: rec.Slow.Quantile(0.999), Done: rec.Done,
	}
	return perCPU, central
}
