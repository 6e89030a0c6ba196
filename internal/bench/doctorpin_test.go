package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"skyloft/internal/obs/doctor"
	"skyloft/internal/simtime"
)

// doctorPin is the part of a doctor report the observability refactors
// must keep byte-identical: the tail attribution table, the findings, the
// span count and the whole-run wakeup percentiles. The windows and the
// config block are left out on purpose — both are allowed to change.
type doctorPin struct {
	Attribution []doctor.AppAttribution `json:"attribution"`
	Findings    []doctor.Finding        `json:"findings"`
	Spans       int                     `json:"spans"`
	WakeP50     simtime.Duration        `json:"wake_p50_ns"`
	WakeP99     simtime.Duration        `json:"wake_p99_ns"`
	WakeP999    simtime.Duration        `json:"wake_p999_ns"`
}

func pinDigest(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal pin: %v", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))[:16]
}

func reportPin(r *doctor.Report) doctorPin {
	return doctorPin{
		Attribution: r.Attribution, Findings: r.Findings, Spans: r.Spans,
		WakeP50: r.WakeP50, WakeP99: r.WakeP99, WakeP999: r.WakeP999,
	}
}

// TestDoctorReportPinned pins the doctor's attribution, findings and
// wakeup percentiles on three runs: the benchmark report's instrumented
// run, the straggler-core chaos preset and the multi-runtime
// oversubscription preset (whose result carries only the report's
// findings). The digests were recorded once and must never be edited to
// fit a change: a mismatch means the doctor's diagnosis moved.
func TestDoctorReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three instrumented simulations")
	}
	run := ObservedRun(1, 10*simtime.Millisecond, true)
	observed := doctor.Analyze(run.Events, run.Spans, doctor.Config{
		TickPeriod: simtime.Second / SkyloftTimerHz,
		Cores:      run.Workers,
	})

	chaos, err := RunChaos("straggler-core", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	chaosReport := doctor.Analyze(chaos.RawEvents, nil, doctor.Config{
		TickPeriod: simtime.Second / SkyloftTimerHz,
		Cores:      chaos.Workers,
	})

	oversub, err := RunOversub("oversub-multiruntime", 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		pin  any
		want string
	}{
		{"observed", reportPin(observed), "188f33b4a1cc606e"},
		{"chaos/straggler-core", reportPin(chaosReport), "b545aab0e4b24b4c"},
		{"oversub/oversub-multiruntime", oversub.Findings, "bca9e2d3d2572306"},
	} {
		if got := pinDigest(t, c.pin); got != c.want {
			t.Errorf("%s: doctor pin digest %s, want %s", c.name, got, c.want)
		}
	}
}
