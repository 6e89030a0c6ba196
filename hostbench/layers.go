package main

import (
	"fmt"
	"strings"
)

// layers lists the simulator's layers in report order. runtime takes the
// samples with no repo frame: GC workers and goroutine scheduling.
var layers = []string{
	"simtime", "hw", "netsim", "core", "proc", "policy",
	"baseline", "apps", "obs", "bench", "runtime",
}

// layerMap names the layer of every package of the module. A package
// belongs to the entry that equals its path or is a parent of it. The
// utility packages map to "" and are transparent: their time goes to the
// layer that called them, so the memtable sort in det.SortedKeys counts
// under apps.
var layerMap = map[string]string{
	"skyloft/internal/simtime":  "simtime",
	"skyloft/internal/hw":       "hw",
	"skyloft/internal/uintrsim": "hw",
	"skyloft/internal/cycles":   "hw",
	"skyloft/internal/faults":   "hw", // injects faults through hw.FaultHooks
	"skyloft/internal/netsim":   "netsim",
	"skyloft/internal/core":     "core",
	"skyloft/internal/sched":    "core",
	"skyloft/internal/shm":      "core",
	"skyloft/internal/kmod":     "core",
	"skyloft/internal/lease":    "core", // core lending between runtimes
	"skyloft/internal/proc":     "proc",
	"skyloft/internal/policy":   "policy",
	"skyloft/internal/baseline": "baseline",
	"skyloft/internal/ksched":   "baseline",
	"skyloft/internal/apps":     "apps",
	"skyloft/internal/loadgen":  "apps",
	"skyloft/internal/obs":      "obs",
	"skyloft/internal/trace":    "obs",
	"skyloft/internal/bench":    "bench",
	"skyloft/internal/lint":     "bench", // tooling; never linked into a run
	"main":                      "bench", // this benchmark's main package
	"skyloft/hostbench":         "bench", // the same, as its tests name it
	"skyloft/internal/det":      "",
	"skyloft/internal/rng":      "",
	"skyloft/internal/stats":    "",
}

const modulePrefix = "skyloft/"

// funcPackage extracts the import path from a symbol name such as
// "skyloft/internal/apps/kvstore.(*LSM).Scan" or
// "skyloft/internal/det.SortedKeys[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// packageLayer resolves a package of the module to its layer; transparent
// reports a utility package. A module package the map does not name is an
// error, so a new package cannot fall silently into runtime.
func packageLayer(pkg string) (layer string, transparent bool, err error) {
	for p := pkg; ; {
		if l, ok := layerMap[p]; ok {
			return l, l == "", nil
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			return "", false, fmt.Errorf("package %s has no layer in the layer map", pkg)
		}
		p = p[:i]
	}
}

// attribute charges a stack (function names, innermost first) to the layer
// of its innermost module frame, skipping transparent utility packages. A
// stack with no such frame is runtime's.
func attribute(stack []string) (string, error) {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !strings.HasPrefix(pkg, modulePrefix) && pkg != "main" {
			continue
		}
		layer, transparent, err := packageLayer(pkg)
		if err != nil {
			return "", err
		}
		if !transparent {
			return layer, nil
		}
	}
	return "runtime", nil
}

// layerTimes sums the samples' CPU time per layer, in nanoseconds.
func layerTimes(samples []sample) (map[string]int64, error) {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		layer, err := attribute(s.stack)
		if err != nil {
			return nil, err
		}
		out[layer] += s.ns
	}
	return out, nil
}

// shares turns per-layer times into fractions of their total, one entry
// per layer; they sum to 1 whenever any time was sampled.
func shares(times map[string]int64) map[string]float64 {
	var total int64
	for _, l := range layers {
		total += times[l]
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(times[l]) / float64(total)
		}
	}
	return out
}
