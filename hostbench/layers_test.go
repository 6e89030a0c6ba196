package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"skyloft/internal/apps/kvstore.(*LSM).Scan":                     "skyloft/internal/apps/kvstore",
		"skyloft/internal/det.SortedKeys[go.shape.string,go.shape.int]": "skyloft/internal/det",
		"skyloft/internal/bench.makeHandler.func2":                      "skyloft/internal/bench",
		"skyloft/internal/obs.WritePerfetto[map[string]x/y.T]":          "skyloft/internal/obs",
		"runtime.mallocgc":                "runtime",
		"runtime/pprof.(*profMap).lookup": "runtime/pprof",
		"main.observedRun.func1":          "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"innermost repo frame wins", []string{
			"runtime.mallocgc",
			"skyloft/internal/simtime.(*Clock).At",
			"skyloft/internal/core.(*Engine).dispatch",
			"skyloft/internal/bench.RunSynthetic",
		}, "simtime"},
		{"det is transparent", []string{
			"sort.Strings",
			"skyloft/internal/det.SortedKeys[go.shape.string,go.shape.string]",
			"skyloft/internal/apps/kvstore.(*LSM).Scan",
			"skyloft/internal/bench.makeHandler.func2",
		}, "apps"},
		{"rng and stats are transparent", []string{
			"skyloft/internal/stats.(*Hist).Record",
			"skyloft/internal/rng.(*Rand).Intn",
			"skyloft/internal/obs/live.(*Bus).onEvent",
			"skyloft/internal/trace.(*Ring).Record",
		}, "obs"},
		{"sub-packages map with their parent", []string{
			"skyloft/internal/baseline/linuxsim.(*Sim).pick",
		}, "baseline"},
		{"no repo frame is runtime", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker",
		}, "runtime"},
		{"only transparent frames is runtime", []string{
			"skyloft/internal/det.SortedKeys[go.shape.string,go.shape.int]", "runtime.goexit",
		}, "runtime"},
		{"the benchmark's own frames are bench", []string{
			"fmt.Sprintf", "main.kvstoreProbe", "main.main",
		}, "bench"},
	}
	for _, c := range cases {
		got, err := attribute(c.stack)
		if err != nil || got != c.want {
			t.Errorf("%s: attribute = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
}

func TestAttributeRejectsUnmappedPackage(t *testing.T) {
	if l, err := attribute([]string{"skyloft/internal/newlayer.F", "skyloft/internal/bench.RunSynthetic"}); err == nil {
		t.Fatalf("unmapped package attributed to %q, want an error", l)
	}
}

// TestLayerMapCoversRepo walks the module's internal tree: a package added
// without a layer must fail here, not vanish into runtime.
func TestLayerMapCoversRepo(t *testing.T) {
	root := filepath.Join("..", "internal")
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		n++
		pkg := "skyloft/internal/" + filepath.ToSlash(rel)
		if _, _, err := packageLayer(pkg); err != nil {
			t.Error(err)
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("module source tree not present")
	}
	if err != nil {
		t.Fatal(err)
	}
	if n < 50 {
		t.Fatalf("walked only %d files under %s", n, root)
	}
}

func TestSharesSumToOne(t *testing.T) {
	times, err := layerTimes([]sample{
		{stack: []string{"skyloft/internal/simtime.(*Clock).takeMin"}, ns: 30e6},
		{stack: []string{"runtime.gcBgMarkWorker"}, ns: 10e6},
		{stack: []string{"skyloft/internal/det.SortedKeys[x]", "skyloft/internal/apps/kvstore.(*LSM).Scan"}, ns: 50e6},
		{stack: []string{"skyloft/internal/obs.WritePerfetto"}, ns: 7e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkShares(t, times)
	if times["apps"] != 50e6 || times["runtime"] != 10e6 {
		t.Fatalf("times = %v", times)
	}
}

func checkShares(t *testing.T, times map[string]int64) {
	t.Helper()
	sum := 0.0
	for _, l := range layers {
		sum += shares(times)[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer shares sum to %v, want 1", sum)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// TestParseRealProfile decodes a profile written by runtime/pprof.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	sink = spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spinning int64
	for _, s := range samples {
		if s.ns <= 0 {
			t.Fatalf("sample with %d ns", s.ns)
		}
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".spin") {
			spinning += s.ns
		}
	}
	if spinning < int64(100*time.Millisecond) {
		t.Fatalf("profile shows %v in spin, want most of 400ms (%d samples)", time.Duration(spinning), len(samples))
	}
	times, err := layerTimes(samples)
	if err != nil {
		t.Fatal(err)
	}
	if times["bench"] < spinning {
		t.Fatalf("bench = %d ns, want at least the %d ns spent in spin", times["bench"], spinning)
	}
	checkShares(t, times)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(v); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := quartiles([]float64{4, 1, 2}); got != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestCheckerFailsMismatchAndPanic(t *testing.T) {
	trials := []trial{
		{name: "ok", run: func(*spanLog) (outcome, error) { return outcome{digest: 7}, nil }},
		{name: "drift", run: func(*spanLog) (outcome, error) { return outcome{digest: 8}, nil }},
		{name: "boom", run: func(*spanLog) (outcome, error) { panic("boom") }},
	}
	c, err := newChecker(trials, map[string]string{"ok": "7", "drift": "9", "boom": "1"})
	if err != nil {
		t.Fatal(err)
	}
	c.runRound(trials, newSpanLog())
	if c.attempts != 3 || c.failed != 2 {
		t.Fatalf("attempts=%d failed=%d, want 3 and 2 (errors %v)", c.attempts, c.failed, c.errors)
	}
	if _, err := newChecker(trials, map[string]string{"ok": "7"}); err == nil {
		t.Fatal("checker accepted references for a different trial set")
	}
}

func TestCheckerPinsFirstDigest(t *testing.T) {
	d := uint64(1)
	trials := []trial{{name: "t", run: func(*spanLog) (outcome, error) { d++; return outcome{digest: d}, nil }}}
	c, _ := newChecker(trials, nil)
	c.runTrial(trials, 0, nil)
	if c.failed != 0 {
		t.Fatal("first run failed")
	}
	c.runTrial(trials, 0, nil)
	if c.failed != 1 {
		t.Fatal("a second run with another digest passed")
	}
}

// TestReferencesMatchTrialSets checks that every committed reference
// names exactly the trials its workload runs.
func TestReferencesMatchTrialSets(t *testing.T) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for name, bySeed := range refs {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed, digests := range bySeed {
			var s uint64
			if _, err := fmt.Sscan(seed, &s); err != nil {
				t.Fatalf("%s: seed %q: %v", name, seed, err)
			}
			if _, err := newChecker(w.trials(s), digests); err != nil {
				t.Errorf("%s seed %s: %v", name, seed, err)
			}
		}
	}
}

func TestMergeRefusesUnlikeHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h hostInfo) string {
		line, err := json.Marshal(struct {
			Record record `json:"record"`
		}{record{Host: h, Workload: "dispersive", result: result{
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{"wall_s": {1, "s"}},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a", hostInfo{CPUModel: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"})
	b := write("b", hostInfo{CPUModel: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"})
	c := write("c", hostInfo{CPUModel: "x", NProc: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0"})
	if err := mergeResults(io.Discard, []string{a, b}); err != nil {
		t.Fatalf("like hosts: %v", err)
	}
	if err := mergeResults(io.Discard, []string{a, c}); err == nil {
		t.Fatal("merged records from unlike hosts")
	}
}
