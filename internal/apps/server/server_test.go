package server_test

import (
	"testing"

	"skyloft/internal/apps/server"
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/ksched"
	"skyloft/internal/loadgen"
	"skyloft/internal/netsim"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/simtime"
)

func TestThreadPerRequestServesAllPackets(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	e := core.New(core.Config{
		Machine: m, CPUs: []int{0, 1}, Mode: core.PerCPU,
		Policy: worksteal.New(0, 1), Costs: core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerNone, Seed: 1,
	})
	defer e.Shutdown()
	app := e.NewApp("srv")
	rec := loadgen.NewRecorder(0)
	nic := netsim.NewNIC(m.Clock, m.Cost, 2)
	server.NewThreadPerRequest(app, nic, rec, server.RunService, nil)

	gen := loadgen.New(100_000, server.USRClasses(), 64, 1)
	server.Feed(gen, m.Clock, nic, 500)
	e.Run(simtime.Second)

	if rec.Done != 500 {
		t.Fatalf("served %d/500", rec.Done)
	}
	if nic.Delivered() != 500 {
		t.Fatalf("NIC delivered %d", nic.Delivered())
	}
	// Sojourn must include the datapath delay plus the service time.
	minLat := m.Cost.NICPoll + m.Cost.RingHop + m.Cost.NetStack
	if rec.Lat.Min() < minLat {
		t.Fatalf("min latency %v below datapath floor %v", rec.Lat.Min(), minLat)
	}
}

func TestWorkerPoolServesAllPackets(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k := ksched.New(ksched.Config{
		Machine: m, CPUs: []int{0, 1, 2}, Params: ksched.DefaultParams(),
		Class: ksched.ClassCFS, Seed: 1,
	})
	defer k.Shutdown()
	rec := loadgen.NewRecorder(0)
	nic := netsim.NewNIC(m.Clock, m.Cost, 3)
	server.NewWorkerPool(k, k, nic, rec, 3, server.RunService, nil)

	gen := loadgen.New(50_000, server.DispersiveClasses(), 64, 2)
	server.Feed(gen, m.Clock, nic, 300)
	k.Run(2 * simtime.Second)

	if rec.Done != 300 {
		t.Fatalf("served %d/300", rec.Done)
	}
}

func TestFeedDirectSpawnsRequestThreads(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	e := core.New(core.Config{
		Machine: m, CPUs: []int{0, 1}, Mode: core.PerCPU,
		Policy: worksteal.New(0, 1), Costs: core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerNone, Seed: 1,
	})
	defer e.Shutdown()
	app := e.NewApp("srv")
	rec := loadgen.NewRecorder(0)
	gen := loadgen.New(200_000, server.USRClasses(), 4, 3)
	server.FeedDirect(gen, m.Clock, app, rec, 200, nil)
	e.Run(simtime.Second)
	if rec.Done != 200 {
		t.Fatalf("served %d/200", rec.Done)
	}
	if rec.Throughput() <= 0 {
		t.Fatal("no throughput measured")
	}
}

func TestWorkloadClassMixes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes []loadgen.Class
		nmodes  int
	}{
		{"usr", server.USRClasses(), 2},
		{"rocksdb", server.RocksDBClasses(), 2},
		{"dispersive", server.DispersiveClasses(), 2},
	} {
		if len(tc.classes) != tc.nmodes {
			t.Errorf("%s: %d classes", tc.name, len(tc.classes))
		}
		if loadgen.MeanService(tc.classes) <= 0 {
			t.Errorf("%s: non-positive mean service", tc.name)
		}
	}
	// The dispersive mix's mean must match the paper's ≈54 µs.
	mean := loadgen.MeanService(server.DispersiveClasses())
	if mean < 53*simtime.Microsecond || mean > 55*simtime.Microsecond {
		t.Fatalf("dispersive mean = %v, want ~54us", mean)
	}
}
