package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"skyloft/internal/det"
	"skyloft/internal/obs"
	"skyloft/internal/simtime"
)

// TestPerfettoExportPinned pins the bytes of two Perfetto exports: the
// benchmark report's observed run with instants and causal flows, and the
// trace.json of the flight recorder's straggler-core bundle. The digests
// were recorded once and must never be edited to fit a change: a mismatch
// means the exported trace moved, byte for byte.
func TestPerfettoExportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two instrumented simulations")
	}
	run := ObservedRunOpts(1, 10*simtime.Millisecond, ObserveOpts{Profile: true, Causal: true})
	var observed bytes.Buffer
	if err := obs.WritePerfetto(&observed, run.Events, obs.ExportConfig{
		NumCPUs: run.Workers, AppNames: run.AppNames, Instants: true,
		Flows: run.Causal.FlowJourneys(),
	}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	_, sess, err := FlightProbe("straggler-core", 1, 0, &obs.Flags{FlightDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	flight, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		data []byte
		want uint64
	}{
		{"observed", observed.Bytes(), 0x435a0906245007e9},
		{"flight/straggler-core", flight, 0x7228ab9f9b8c6926},
	} {
		if got := det.FNVBytes(det.FNVOffset, c.data); got != c.want {
			t.Errorf("%s: perfetto export digest %#016x (%d bytes), want %#016x", c.name, got, len(c.data), c.want)
		}
	}
}

// perfettoExportBudget caps what exporting an observed window may allocate.
// The streaming writer allocates its 64 KiB write buffer, one scratch
// record and one open slice per CPU; building a TraceEvent with an args map
// and a formatted name per record and reflecting over them (the reference
// exporter) allocates about 46 MB on the same window.
const perfettoExportBudget = 1 << 20

// TestPerfettoExportAllocs exports an 80 ms observed run — about 50k ring
// events, the window hostbench's observed-preempt workload exports — with
// instants and causal flows to io.Discard, and checks the export's heap
// allocation against perfettoExportBudget.
func TestPerfettoExportAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 80ms instrumented simulation")
	}
	run := ObservedRunOpts(1, 80*simtime.Millisecond, ObserveOpts{Causal: true})
	if len(run.Events) < 40000 {
		t.Fatalf("observed window has %d events, want about 50k", len(run.Events))
	}
	cfg := obs.ExportConfig{
		NumCPUs: run.Workers, AppNames: run.AppNames, Instants: true,
		Flows: run.Causal.FlowJourneys(),
	}
	var err error
	least := leastAlloc(3, func() { err = obs.WritePerfetto(io.Discard, run.Events, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("perfetto export of %d events: %d bytes", len(run.Events), least)
	if least > perfettoExportBudget {
		t.Fatalf("exporting %d events allocated %d bytes, budget %d", len(run.Events), least, perfettoExportBudget)
	}
}
