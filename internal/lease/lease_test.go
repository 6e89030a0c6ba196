package lease

import (
	"fmt"
	"strings"
	"testing"

	"skyloft/internal/simtime"
	"skyloft/internal/trace"
)

// fakeClient scripts borrower behavior: by default it yields on the first
// notification; set deaf to ignore every notification and force the full
// escalation into ForceEvict.
type fakeClient struct {
	clock   *simtime.Clock
	mgr     *Manager
	deaf    bool // ignore notifications (stalled / dropped-IPI borrower)
	yieldIn simtime.Duration

	notifies []int // attempt numbers seen
	evicts   int
}

func (f *fakeClient) ReclaimNotify(core, attempt int) {
	f.notifies = append(f.notifies, attempt)
	if f.deaf {
		return
	}
	f.clock.After(f.yieldIn, func() { f.mgr.Returned(core) })
}

func (f *fakeClient) ForceEvict(core int) {
	f.evicts++
	// The kernel-module yank lands after a short bounded delay.
	f.clock.After(simtime.Microsecond, func() { f.mgr.Returned(core) })
}

func newHarness(deaf bool) (*simtime.Clock, *Manager, *fakeClient, *trace.Ring) {
	clock := simtime.NewClock()
	ring := trace.New(1 << 10)
	fc := &fakeClient{clock: clock, deaf: deaf, yieldIn: 2 * simtime.Microsecond}
	mgr := NewManager(clock, fc, ring)
	fc.mgr = mgr
	return clock, mgr, fc, ring
}

func TestReclaimBound(t *testing.T) {
	// 50 + (15 + 30 + 60) + 40 = 195µs.
	if got, want := ReclaimBound, 195*simtime.Microsecond; got != want {
		t.Fatalf("ReclaimBound = %v, want %v", got, want)
	}
}

func TestCooperativeReclaim(t *testing.T) {
	clock, mgr, fc, _ := newHarness(false)
	if err := mgr.Grant(3, 0, 7); err != nil {
		t.Fatal(err)
	}
	if mgr.StateOf(3) != Granted {
		t.Fatalf("state = %v", mgr.StateOf(3))
	}
	if !mgr.RequestReclaim(3) {
		t.Fatal("RequestReclaim refused a granted core")
	}
	if mgr.RequestReclaim(3) {
		t.Fatal("RequestReclaim not idempotent while reclaiming")
	}
	clock.Run(simtime.Time(simtime.Millisecond))
	if mgr.StateOf(3) != Idle {
		t.Fatalf("state after run = %v", mgr.StateOf(3))
	}
	if mgr.CooperativeReturns() != 1 || mgr.ForcedRevocations() != 0 {
		t.Fatalf("coop=%d forced=%d", mgr.CooperativeReturns(), mgr.ForcedRevocations())
	}
	if got := fc.notifies; len(got) != 1 || got[0] != 0 {
		t.Fatalf("notifies = %v", got)
	}
	if p99 := mgr.ReclaimHist().Quantile(0.99); p99 > ReclaimBound {
		t.Fatalf("cooperative p99 %v above bound", p99)
	}
}

func TestForcedRevocationEscalatesToEvict(t *testing.T) {
	clock, mgr, fc, ring := newHarness(true) // borrower ignores everything
	if err := mgr.Grant(2, 0, 7); err != nil {
		t.Fatal(err)
	}
	mgr.RequestReclaim(2)
	clock.Run(simtime.Time(simtime.Millisecond))

	if mgr.ForcedRevocations() != 1 {
		t.Fatalf("forced revocations = %d", mgr.ForcedRevocations())
	}
	if mgr.Evictions() != 1 || fc.evicts != 1 {
		t.Fatalf("evictions = %d / client %d", mgr.Evictions(), fc.evicts)
	}
	if int(mgr.RevocationRetries()) != RetryMax {
		t.Fatalf("retries = %d, want %d", mgr.RevocationRetries(), RetryMax)
	}
	// Attempt numbers: cooperative 0, then forced 1..RetryMax.
	want := []int{0, 1, 2, 3}
	if len(fc.notifies) != len(want) {
		t.Fatalf("notifies = %v", fc.notifies)
	}
	for i, a := range want {
		if fc.notifies[i] != a {
			t.Fatalf("notifies = %v, want %v", fc.notifies, want)
		}
	}
	if mgr.StateOf(2) != Idle {
		t.Fatalf("state = %v", mgr.StateOf(2))
	}
	// Latency stayed within the proven bound even with a deaf borrower.
	if mgr.DeadlineMisses() != 0 {
		t.Fatalf("deadline misses = %d", mgr.DeadlineMisses())
	}
	if max := mgr.ReclaimHist().Max(); max > ReclaimBound {
		t.Fatalf("reclaim took %v, bound %v", max, ReclaimBound)
	}
	// The trace carries the full lease lifecycle, one event per
	// transition: Granted -> Reclaiming -> Revoking -> Idle.
	wantKinds := []trace.Kind{trace.LeaseGrant, trace.LeaseReclaim, trace.LeaseRevoke, trace.LeaseReturn}
	evs := ring.Events()
	if len(evs) != len(wantKinds) {
		t.Fatalf("lease trace = %v", evs)
	}
	for i, k := range wantKinds {
		if evs[i].Kind != k {
			t.Fatalf("lease trace event %d = %v, want %v", i, evs[i].Kind, k)
		}
	}
}

func TestDoubleGrantRejected(t *testing.T) {
	_, mgr, _, _ := newHarness(false)
	if err := mgr.Grant(1, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Grant(1, 0, 8); err == nil {
		t.Fatal("double grant accepted")
	}
	mgr.Returned(1)
	if err := mgr.Grant(1, 0, 8); err != nil {
		t.Fatalf("re-grant after return: %v", err)
	}
}

func TestVoluntaryReturnCancelsNothing(t *testing.T) {
	clock, mgr, fc, _ := newHarness(true)
	if err := mgr.Grant(4, 0, 7); err != nil {
		t.Fatal(err)
	}
	mgr.Returned(4) // borrower blocked; core came back on its own
	if mgr.VoluntaryReturns() != 1 || mgr.StateOf(4) != Idle {
		t.Fatalf("voluntary=%d state=%v", mgr.VoluntaryReturns(), mgr.StateOf(4))
	}
	mgr.Returned(4) // idempotent
	if mgr.VoluntaryReturns() != 1 {
		t.Fatal("double return counted twice")
	}
	clock.Run(simtime.Time(simtime.Millisecond))
	if len(fc.notifies) != 0 || mgr.ForcedRevocations() != 0 {
		t.Fatal("voluntary return triggered reclaim machinery")
	}
}

// TestLateCooperativeReturnDefusesEscalation: the borrower yields after the
// grace deadline (forced revocation already engaged) but before eviction —
// the pending escalation callbacks must become no-ops.
func TestLateCooperativeReturnDefusesEscalation(t *testing.T) {
	clock, mgr, fc, _ := newHarness(true)
	if err := mgr.Grant(5, 0, 7); err != nil {
		t.Fatal(err)
	}
	mgr.RequestReclaim(5)
	// Yield just after the first forced resend.
	clock.After(Grace+RetryTimeout+simtime.Microsecond,
		func() { mgr.Returned(5) })
	clock.Run(simtime.Time(simtime.Millisecond))
	if fc.evicts != 0 {
		t.Fatal("eviction fired after the core was already back")
	}
	if mgr.ForcedRevocations() != 1 {
		t.Fatalf("forced revocations = %d", mgr.ForcedRevocations())
	}
	if mgr.StateOf(5) != Idle {
		t.Fatalf("state = %v", mgr.StateOf(5))
	}
}

func TestAuditReportsOverdueAndOwnership(t *testing.T) {
	clock, mgr, _, _ := newHarness(true)
	if err := mgr.Grant(6, 0, 7); err != nil {
		t.Fatal(err)
	}
	// Break the client contract on purpose: swallow the eviction so the
	// lease wedges in Revoking past the bound.
	mgr.client = deadClient{}
	mgr.RequestReclaim(6)
	// Pin an event past the bound so virtual time actually advances there
	// (the clock stops at its last pending event).
	clock.After(simtime.Millisecond, func() {})
	clock.Run(simtime.Time(simtime.Millisecond))
	var got []string
	mgr.AuditLeases(func(format string, args ...any) {
		got = append(got, strings.TrimSpace(formatf(format, args...)))
	})
	if len(got) != 1 || !strings.Contains(got[0], "past the") {
		t.Fatalf("audit = %v", got)
	}
	// Reported once, not on every sweep.
	got = got[:0]
	mgr.AuditLeases(func(format string, args ...any) {
		got = append(got, formatf(format, args...))
	})
	if len(got) != 0 {
		t.Fatalf("overdue re-reported: %v", got)
	}
	if mgr.DeadlineMisses() == 0 {
		t.Fatal("deadline miss not counted")
	}

	// Ownership cross-check: a granted core whose active kthread belongs
	// to a third app is a violation.
	if err := mgr.Grant(9, 0, 7); err != nil {
		t.Fatal(err)
	}
	mgr.SetBindingAudit(func(core int) (int, bool) { return 3, true })
	got = got[:0]
	mgr.AuditLeases(func(format string, args ...any) {
		got = append(got, formatf(format, args...))
	})
	if len(got) != 1 || !strings.Contains(got[0], "kthread is active") {
		t.Fatalf("ownership audit = %v", got)
	}
}

type deadClient struct{}

func (deadClient) ReclaimNotify(core, attempt int) {}
func (deadClient) ForceEvict(core int)             {}

func formatf(format string, args ...any) string {
	return strings.TrimSpace(fmt.Sprintf(format, args...))
}

// fuzzCores is how many cores FuzzLeaseManager drives.
const fuzzCores = 4

// Fuzz operation kinds: an op byte's low two bits pick the core, the rest
// (mod fuzzKinds) the kind.
const (
	fuzzGrant = iota
	fuzzReclaim
	fuzzReturn
	fuzzDeaf
	fuzzYield
	fuzzEvictDelay
	fuzzAdvance
	fuzzKinds
)

// fuzzClient scripts one borrower per core: deaf borrowers ignore every
// notification, the rest yield after their delay. ForceEvict lands after
// the shared eviction delay, which stays inside EvictSlack as the Client
// contract requires.
type fuzzClient struct {
	clock      *simtime.Clock
	ret        func(core int)
	deaf       [fuzzCores]bool
	yield      [fuzzCores]simtime.Duration
	evictDelay simtime.Duration
}

func (f *fuzzClient) ReclaimNotify(core, attempt int) {
	if !f.deaf[core] {
		f.clock.After(f.yield[core], func() { f.ret(core) })
	}
}

func (f *fuzzClient) ForceEvict(core int) {
	f.clock.After(f.evictDelay, func() { f.ret(core) })
}

// FuzzLeaseManager drives the lease state machine with (op, arg) byte
// pairs — grants, reclaims, voluntary returns, borrower behavior changes,
// eviction delays and clock advances on four cores — against a shadow model
// of which cores are lent and which have a reclaim pending. After every
// step the auditor must stay silent and the manager's state must match the
// model; Grant must fail exactly on a lent core. After a drain of
// ReclaimBound plus the longest yield delay, no reclaim may be left in
// flight and none may have missed the bound.
func FuzzLeaseManager(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		clock := simtime.NewClock()
		fc := &fuzzClient{clock: clock}
		mgr := NewManager(clock, fc, nil)
		var lent, reclaiming [fuzzCores]bool
		fc.ret = func(core int) {
			lent[core], reclaiming[core] = false, false
			mgr.Returned(core)
		}
		advance := func(d simtime.Duration) {
			clock.After(d, func() {})
			clock.Run(clock.Now() + simtime.Time(d))
		}
		check := func(step int) {
			t.Helper()
			mgr.AuditLeases(func(format string, args ...any) {
				t.Fatalf("step %d: audit: %s", step, formatf(format, args...))
			})
			for core := 0; core < fuzzCores; core++ {
				want := Idle
				if reclaiming[core] {
					want = Reclaiming
				} else if lent[core] {
					want = Granted
				}
				got := mgr.StateOf(core)
				if got == Revoking {
					got = Reclaiming
				}
				if got != want {
					t.Fatalf("step %d: core %d state %v, model %v", step, core, mgr.StateOf(core), want)
				}
			}
		}
		var maxYield simtime.Duration
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i], prog[i+1]
			core := int(op & (fuzzCores - 1))
			switch (op >> 2) % fuzzKinds {
			case fuzzGrant:
				err := mgr.Grant(core, 0, 1+int(arg)%3)
				if (err != nil) != lent[core] {
					t.Fatalf("step %d: Grant(core %d) err=%v with lent=%v", i/2, core, err, lent[core])
				}
				lent[core] = true
			case fuzzReclaim:
				want := lent[core] && !reclaiming[core]
				if got := mgr.RequestReclaim(core); got != want {
					t.Fatalf("step %d: RequestReclaim(core %d) = %v, want %v", i/2, core, got, want)
				}
				reclaiming[core] = reclaiming[core] || want
			case fuzzReturn:
				fc.ret(core)
			case fuzzDeaf:
				fc.deaf[core] = true
			case fuzzYield:
				fc.deaf[core] = false
				fc.yield[core] = simtime.Duration(arg) * simtime.Microsecond
				maxYield = max(maxYield, fc.yield[core])
			case fuzzEvictDelay:
				fc.evictDelay = EvictSlack * simtime.Duration(arg) / 255
			case fuzzAdvance:
				advance(simtime.Duration(arg) * simtime.Microsecond)
			}
			check(i / 2)
		}
		advance(ReclaimBound + maxYield)
		check(len(prog) / 2)
		for core := 0; core < fuzzCores; core++ {
			if s := mgr.StateOf(core); s == Reclaiming || s == Revoking {
				t.Fatalf("core %d still %v after the drain", core, s)
			}
		}
		if n := mgr.DeadlineMisses(); n != 0 {
			t.Fatalf("%d reclaims missed the %v bound", n, ReclaimBound)
		}
	})
}
