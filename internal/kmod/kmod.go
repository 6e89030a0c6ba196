// Package kmod simulates the Skyloft kernel module (§3.3, §4.2): a small
// privileged helper mounted at /dev/skyloft that the user-space scheduler
// reaches via ioctl(). It owns the operations user space cannot perform —
// atomically parking/waking kernel threads so that the Single Binding Rule
// holds, and configuring user-space timer interrupts — and charges each the
// paper's measured costs (inter-application switch: 1,905 ns; ioctl round
// trip for configuration calls).
package kmod

import (
	"errors"
	"fmt"

	"skyloft/internal/cycles"
	"skyloft/internal/simtime"
	"skyloft/internal/uintrsim"
)

// ErrCoreLeased is SwitchTo's rejection of a kernel thread that belongs to
// neither party of the target core's active lease. The returned error
// wraps it with core/app detail; match with errors.Is.
var ErrCoreLeased = errors.New("kmod: core is leased to another application")

// KThread is one application's kernel thread bound to one isolated core.
// Skyloft creates, per application, one kernel thread per isolated core; at
// most one of a core's kernel threads is active at any instant.
type KThread struct {
	TID    int
	App    int
	Core   int
	Active bool
}

func (k *KThread) String() string {
	return fmt.Sprintf("kthread{tid=%d app=%d core=%d active=%v}", k.TID, k.App, k.Core, k.Active)
}

// leaseMark is the module's view of one core lease: who lent it and who
// borrowed it. The module does not run the lease state machine
// (internal/lease does); it only enforces that SwitchTo on a leased core
// names one of the two parties.
type leaseMark struct {
	lender   int
	borrower int
}

// Module is the simulated kernel module instance.
type Module struct {
	cost    cycles.Model
	nextTID int
	cores   map[int][]*KThread // isolated core -> its kernel threads
	byTID   map[int]*KThread
	leases  map[int]leaseMark // isolated core -> active lease, if any

	switches uint64 // inter-application switches performed
}

// New creates the module, charging its operations from cost.
func New(cost cycles.Model) *Module {
	return &Module{
		cost:    cost,
		nextTID: 1000, // arbitrary TID base, like real gettid() values
		cores:   make(map[int][]*KThread),
		byTID:   make(map[int]*KThread),
		leases:  make(map[int]leaseMark),
	}
}

// Switches reports the number of inter-application switches performed.
func (mod *Module) Switches() uint64 { return mod.switches }

// MarkLeased records that core is lent by lender to borrower. While the
// mark is present, SwitchTo rejects kernel threads of any third
// application on that core.
func (mod *Module) MarkLeased(core, lender, borrower int) {
	mod.leases[core] = leaseMark{lender: lender, borrower: borrower}
}

// ClearLease removes core's lease mark (reclaim or voluntary return
// completed).
func (mod *Module) ClearLease(core int) { delete(mod.leases, core) }

// leaseAllows reports whether app may activate a thread on a leased
// core: only the lease's two parties may, everyone else gets ErrCoreLeased.
func (mod *Module) leaseAllows(core, app int) error {
	l, ok := mod.leases[core]
	if !ok || app == l.borrower || app == l.lender {
		return nil
	}
	return fmt.Errorf("kmod: core %d leased by app %d to app %d, app %d may not bind: %w",
		core, l.lender, l.borrower, app, ErrCoreLeased)
}

// CreateBound registers a new kernel thread for app bound to core and
// immediately active — the daemon's initial threads (§4.1), which bind with
// plain sched_setaffinity. It panics if the Single Binding Rule would be
// violated.
func (mod *Module) CreateBound(app, core int) *KThread {
	t := mod.create(app, core)
	t.Active = true
	mod.checkBindingRule(core)
	return t
}

// ParkOnCPU registers a new kernel thread for app, binds it to core and
// suspends it before it ever runs (skyloft_park_on_cpu). Subsequent
// applications join this way so the rule is never violated.
func (mod *Module) ParkOnCPU(app, core int) *KThread {
	return mod.create(app, core)
}

func (mod *Module) create(app, core int) *KThread {
	mod.nextTID++
	t := &KThread{TID: mod.nextTID, App: app, Core: core}
	mod.cores[core] = append(mod.cores[core], t)
	mod.byTID[t.TID] = t
	return t
}

// SwitchTo suspends the core's currently active kernel thread and wakes the
// target (skyloft_switch_to): the application-switch path of Figure 4. Both
// transitions happen atomically in the kernel. It returns the time the
// operation occupies the core (the measured 1,905 ns inter-application
// switch). The caller charges it.
func (mod *Module) SwitchTo(targetTID int) (simtime.Duration, error) {
	target, ok := mod.byTID[targetTID]
	if !ok {
		return 0, fmt.Errorf("kmod: no kernel thread with tid %d", targetTID)
	}
	if err := mod.leaseAllows(target.Core, target.App); err != nil {
		return 0, err
	}
	curr := mod.ActiveOn(target.Core)
	if curr == target {
		return 0, nil // already active: nothing to do
	}
	if curr != nil {
		curr.Active = false
	}
	target.Active = true
	mod.switches++
	mod.checkBindingRule(target.Core)
	return mod.cost.AppSwitch, nil
}

// ActiveOn reports the active kernel thread on core, or nil.
func (mod *Module) ActiveOn(core int) *KThread {
	for _, t := range mod.cores[core] {
		if t.Active {
			return t
		}
	}
	return nil
}

// checkBindingRule panics if two active kernel threads share a core — the
// invariant the whole design rests on, so violating it is a simulator bug.
func (mod *Module) checkBindingRule(core int) {
	n := 0
	for _, t := range mod.cores[core] {
		if t.Active {
			n++
		}
	}
	if n > 1 {
		panic(fmt.Sprintf("kmod: Single Binding Rule violated on core %d (%d active)", core, n))
	}
}

// TimerEnable delegates the core's LAPIC timer to user space via the §3.2
// recipe (skyloft_timer_enable + skyloft_timer_set_hz). The returned
// duration is the ioctl cost; the caller charges it to the calling core.
func (mod *Module) TimerEnable(r *uintrsim.Receiver, s *uintrsim.Sender, hz int64) (*uintrsim.TimerDelegation, simtime.Duration) {
	d := uintrsim.DelegateTimer(r, s, hz)
	return d, mod.cost.Syscall
}
