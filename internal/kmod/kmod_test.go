package kmod

import (
	"errors"
	"strings"
	"testing"

	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/simtime"
	"skyloft/internal/uintrsim"
)

func newModule() *Module { return New(cycles.Default()) }

func TestBindingRuleAcrossApps(t *testing.T) {
	mod := newModule()
	a0 := mod.CreateBound(0, 0) // daemon app active on core 0
	a1 := mod.ParkOnCPU(1, 0)   // second app parks
	if !a0.Active || a1.Active {
		t.Fatal("initial active states wrong")
	}
	if got := mod.ActiveOn(0); got != a0 {
		t.Fatalf("ActiveOn(0) = %v", got)
	}
	cost, err := mod.SwitchTo(a1.TID)
	if err != nil {
		t.Fatal(err)
	}
	if cost != cycles.Default().AppSwitch {
		t.Fatalf("switch cost = %v, want %v", cost, cycles.Default().AppSwitch)
	}
	if a0.Active || !a1.Active {
		t.Fatal("SwitchTo did not flip active states")
	}
	if mod.Switches() != 1 {
		t.Fatalf("Switches() = %d", mod.Switches())
	}
}

func TestSwitchToSelfIsFree(t *testing.T) {
	mod := newModule()
	a := mod.CreateBound(0, 1)
	cost, err := mod.SwitchTo(a.TID)
	if err != nil || cost != 0 {
		t.Fatalf("self-switch cost=%v err=%v", cost, err)
	}
}

func TestSwitchToUnknownTID(t *testing.T) {
	mod := newModule()
	if _, err := mod.SwitchTo(424242); err == nil {
		t.Fatal("SwitchTo unknown tid did not error")
	}
}

// TestBindingViolationPaths drives the ways a binding operation can try to
// break the Single Binding Rule or an active lease. A third party's switch
// onto a leased core is a runtime condition: it returns ErrCoreLeased with
// ownership untouched. A second active thread on one core is a simulator
// bug: it panics.
func TestBindingViolationPaths(t *testing.T) {
	cases := []struct {
		name string
		// setup returns the core under test with threads/leases arranged.
		setup   func(mod *Module) int
		attempt func(mod *Module, core int) error
		want    error  // the sentinel the attempt returns, or
		panics  string // a substring of the panic it raises
	}{
		{
			name:  "double-bind",
			setup: func(mod *Module) int { mod.CreateBound(0, 1); return 1 },
			attempt: func(mod *Module, core int) error {
				mod.CreateBound(1, core)
				return nil
			},
			panics: "Single Binding Rule violated on core 1",
		},
		{
			name: "switch-to-third-party-while-leased",
			setup: func(mod *Module) int {
				mod.CreateBound(0, 3)
				mod.ParkOnCPU(7, 3)
				mod.ParkOnCPU(4, 3) // bound before the lease began
				mod.MarkLeased(3, 0, 7)
				return 3
			},
			attempt: func(mod *Module, core int) error {
				_, err := mod.SwitchTo(threadOf(mod, 4, core).TID)
				return err
			},
			want: ErrCoreLeased,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod := newModule()
			core := tc.setup(mod)
			before := mod.ActiveOn(core)
			if tc.panics != "" {
				defer func() {
					r, _ := recover().(string)
					if !strings.Contains(r, tc.panics) {
						t.Fatalf("panic = %q, want %q", r, tc.panics)
					}
				}()
			}
			err := tc.attempt(mod, core)
			if tc.panics != "" {
				t.Fatal("violation did not panic")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := mod.ActiveOn(core); got != before {
				t.Fatalf("active thread changed across failed op: %v -> %v", before, got)
			}
			if mod.Switches() != 0 {
				t.Fatalf("failed op counted a switch: %d", mod.Switches())
			}
		})
	}
}

// threadOf finds app's kernel thread on core.
func threadOf(mod *Module, app, core int) *KThread {
	for _, k := range mod.cores[core] {
		if k.App == app {
			return k
		}
	}
	return nil
}

// TestLeasePartiesMayBind checks the positive paths: the lease's borrower
// and lender stay fully operational on the leased core, and clearing the
// lease reopens it to everyone.
func TestLeasePartiesMayBind(t *testing.T) {
	mod := newModule()
	lender := mod.CreateBound(0, 1)
	borrower := mod.ParkOnCPU(7, 1)
	third := mod.ParkOnCPU(3, 1)
	mod.MarkLeased(1, 0, 7)
	if _, err := mod.SwitchTo(borrower.TID); err != nil {
		t.Fatalf("borrower switch under lease: %v", err)
	}
	if _, err := mod.SwitchTo(lender.TID); err != nil {
		t.Fatalf("lender reclaim switch under lease: %v", err)
	}
	if _, err := mod.SwitchTo(third.TID); !errors.Is(err, ErrCoreLeased) {
		t.Fatalf("third party switch under lease: err = %v", err)
	}
	mod.ClearLease(1)
	if _, err := mod.SwitchTo(third.TID); err != nil {
		t.Fatalf("third party switch after ClearLease: %v", err)
	}
	if mod.ActiveOn(1) != third {
		t.Fatal("third party not active after ClearLease")
	}
}

func TestTimerEnableDelegates(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.Cores = 1
	m := hw.NewMachine(cfg)
	cost := cycles.Default()
	mod := New(cost)
	recv := uintrsim.NewReceiver(m.Cores[0], cost)
	send := uintrsim.NewSender(m.Cores[0], cost)
	fired := 0
	var deleg *uintrsim.TimerDelegation
	recv.Register(0xEF, func(uint8, simtime.Duration) {
		fired++
		recv.Core().Exec(deleg.Rearm(), func() { recv.UIRet() })
	})
	var ioctlCost simtime.Duration
	deleg, ioctlCost = mod.TimerEnable(recv, send, 1_000_000) // 1 MHz
	if ioctlCost != cost.Syscall {
		t.Fatalf("ioctl cost = %v", ioctlCost)
	}
	m.Clock.Run(10 * simtime.Microsecond)
	deleg.Stop()
	if fired < 9 {
		t.Fatalf("only %d delegated ticks in 10us at 1MHz", fired)
	}
}
