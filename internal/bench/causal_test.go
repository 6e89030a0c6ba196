package bench

import (
	"fmt"
	"testing"

	"skyloft/internal/apps/server"
	"skyloft/internal/hw"
	"skyloft/internal/obs"
	"skyloft/internal/obs/causal"
	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// Causal-tracer differentials: attaching the per-request tracer must leave
// the schedule untouched (trace hash, span hash and dispatched-event count
// equal the untraced run's), and the tracer's own state must replay
// bit-identically.

// runSignature is one run's behavioural fingerprint.
type runSignature struct {
	traceHash  uint64
	traceTotal uint64
	spanHash   uint64
	dispatched uint64
}

func (s runSignature) String() string {
	return fmt.Sprintf("trace=%016x/%d spans=%016x dispatched=%d",
		s.traceHash, s.traceTotal, s.spanHash, s.dispatched)
}

func signatureOf(m *hw.Machine, tr *trace.Ring) runSignature {
	return runSignature{
		traceHash:  tr.Hash(),
		traceTotal: tr.Total(),
		spanHash:   obs.BuildSpans(tr.Events()).Hash(),
		dispatched: m.Clock.Dispatched(),
	}
}

// fig7Signature runs the Fig. 7 quick config, with the causal tracer
// attached when ctr is non-nil.
func fig7Signature(seed uint64, ctr *causal.Tracer) runSignature {
	m := newMachine()
	tr := trace.New(1 << 16)
	RunSynthetic(SynthConfig{
		System: SynthSkyloft, Rate: 0.5 * Capacity(Fig7Workers, server.DispersiveClasses()),
		Duration: 5 * simtime.Millisecond, Warmup: simtime.Millisecond,
		Seed: seed, machine: m, tr: tr, ct: ctr,
	})
	return signatureOf(m, tr)
}

// netSignature runs a quick Fig. 8a Memcached config (the kernel-bypass NIC
// path: packet sequence numbers assigned at netsim arrival, RSS steering,
// ingress rings, thread-per-request service) — optionally with the causal
// request tracer attached over the NIC observer and server callbacks.
func netSignature(seed uint64, ctr *causal.Tracer) runSignature {
	m := newMachine()
	tr := trace.New(1 << 16)
	RunNetApp(NetConfig{
		System: NetSkyloft, App: "memcached", Workers: Fig8aWorkers,
		Rate:     0.5 * Capacity(Fig8aWorkers, server.USRClasses()),
		Duration: 5 * simtime.Millisecond, Warmup: simtime.Millisecond,
		Seed: seed, machine: m, tr: tr, ct: ctr,
	})
	return signatureOf(m, tr)
}

// causalDifferential checks the tracer is attach-only on sig's workload
// and that a second traced run reproduces the tracer state bit for bit,
// returning the first traced run's tracer for workload-specific checks.
func causalDifferential(t *testing.T, seed uint64, sig func(uint64, *causal.Tracer) runSignature) *causal.Tracer {
	t.Helper()
	bare := sig(seed, nil)
	tracer := causal.New(causal.Config{})
	traced := sig(seed, tracer)
	if traced != bare {
		t.Fatalf("seed %d: causal tracer perturbed the run:\n  bare:   %v\n  traced: %v",
			seed, bare, traced)
	}
	if tracer.Completed() == 0 {
		t.Fatalf("seed %d: tracer completed no journeys", seed)
	}
	replay := causal.New(causal.Config{})
	if again := sig(seed, replay); again != traced {
		t.Fatalf("seed %d: traced replay diverged:\n  first:  %v\n  replay: %v", seed, traced, again)
	}
	if got, want := replay.Hash(), tracer.Hash(); got != want {
		t.Fatalf("seed %d: causal state diverged on replay: %016x vs %016x (completed %d/%d)",
			seed, got, want, replay.Completed(), tracer.Completed())
	}
	return tracer
}

// TestCausalDifferentialFig7 pins the causal tracer's two contracts on the
// Fig. 7 quick config across four seeds: attaching it leaves the schedule
// untouched, and its full state — journey counts, top-K exemplar selection,
// per-hop critical-path attribution — replays bit-identically. The
// edges-sum-to-sojourn invariant is enforced by a panic inside the tracer
// on every completed journey, so this test also exercises it thousands of
// times.
func TestCausalDifferentialFig7(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5, 13} {
		tracer := causalDifferential(t, seed, fig7Signature)
		if len(tracer.Exemplars()) == 0 {
			t.Fatalf("seed %d: tracer retained no exemplars", seed)
		}
	}
}

// TestCausalDifferentialFig8 is the NIC-path twin of the Fig. 7 causal
// differential: request IDs are born at netsim packet arrival and the
// journey crosses RSS steering, the ingress ring, and the serving thread.
// Every retained exemplar must also carry its RSS ring and a non-empty hop
// chain.
func TestCausalDifferentialFig8(t *testing.T) {
	for _, seed := range []uint64{1, 5, 13, 21} {
		tracer := causalDifferential(t, seed, netSignature)
		if cov := tracer.Coverage(); cov < 0.9 {
			t.Fatalf("seed %d: request coverage %.3f, want >= 0.9", seed, cov)
		}
		for _, ex := range tracer.Exemplars() {
			if ex.Kind != "request" {
				t.Fatalf("seed %d: NIC exemplar kind %q, want request", seed, ex.Kind)
			}
			if ex.Ring < 0 {
				t.Fatalf("seed %d: request %d lost its RSS ring", seed, ex.ID)
			}
			if len(ex.Hops) == 0 {
				t.Fatalf("seed %d: request %d has no dispatch hops", seed, ex.ID)
			}
		}
	}
}
