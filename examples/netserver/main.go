// Netserver: the full §3.5 datapath, end to end — a memcached-style UDP
// server whose worker threads run on Skyloft and block in real socket
// receives, a client host on the other end of a simulated wire, genuine
// Ethernet/IPv4/UDP frames with checksums in between, and µs-scale
// preemptive scheduling keeping the GET tail flat while background work
// churns on the same cores.
//
// Run with:
//
//	go run ./examples/netserver
package main

import (
	"fmt"

	"skyloft/internal/apps/kvstore"
	"skyloft/internal/apps/memcacheproto"
	"skyloft/internal/core"
	"skyloft/internal/cycles"
	"skyloft/internal/hw"
	"skyloft/internal/netsim"
	"skyloft/internal/policy/worksteal"
	"skyloft/internal/rng"
	"skyloft/internal/sched"
	"skyloft/internal/simtime"
	"skyloft/internal/stats"
)

func main() {
	machine := hw.NewMachine(hw.DefaultConfig())
	engine := core.New(core.Config{
		Machine:   machine,
		CPUs:      []int{0, 1},
		Mode:      core.PerCPU,
		Policy:    worksteal.New(10*simtime.Microsecond, 1),
		Costs:     core.SkyloftCosts(cycles.Default()),
		TimerMode: core.TimerLAPIC,
		TimerHz:   100_000,
	})
	defer engine.Shutdown()
	app := engine.NewApp("netserver")

	// Two hosts on a 2 µs wire. The server stack wakes Skyloft threads;
	// the client side is event-driven.
	wire := netsim.NewWire(machine.Clock, 2*simtime.Microsecond)
	serverStack := netsim.NewStack(machine.Clock, engine, netsim.IP{10, 0, 0, 2}, netsim.MAC{2, 0, 0, 0, 0, 2})
	clientStack := netsim.NewStack(machine.Clock, nil, netsim.IP{10, 0, 0, 1}, netsim.MAC{2, 0, 0, 0, 0, 1})
	serverStack.Attach(wire, 1)
	clientStack.Attach(wire, 0)

	// The store, the real memcached ASCII protocol, and the UDP service
	// threads.
	store := kvstore.NewMemcache(64)
	store.Preload(10000)
	mc := memcacheproto.NewServer(store)
	sock, err := serverStack.BindUDP(11211)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 4; i++ {
		app.Start("udp-worker", func(e sched.Env) {
			for {
				d := sock.RecvFrom(e)
				e.Run(2 * simtime.Microsecond) // request processing
				sock.SendTo(d.Src, d.SrcPort, mc.Handle(d.Data))
			}
		})
	}

	// Background batch work saturating both cores: request threads must
	// preempt it to keep the tail flat.
	for i := 0; i < 2; i++ {
		app.Start("background", func(e sched.Env) {
			for {
				e.Run(200 * simtime.Microsecond)
			}
		})
	}

	// Client: open-loop requests every 50 µs, measuring RTT.
	cli, _ := clientStack.BindUDP(0)
	lat := stats.NewHist()
	var sendTimes []simtime.Time // send instants of outstanding requests, oldest first
	cli.OnDatagram(func(d netsim.Datagram) {
		// Replies carry the value; match by draining in order.
		lat.Record(machine.Now() - sendTimes[0])
		sendTimes = sendTimes[1:]
	})
	r := rng.New(7)
	const requests = 2000
	for i := 0; i < requests; i++ {
		at := simtime.Time(i) * 50 * simtime.Microsecond
		machine.Clock.At(at, func() {
			key := fmt.Sprintf("key-%d", r.Intn(10000))
			sendTimes = append(sendTimes, machine.Now())
			req := memcacheproto.FormatRequest(memcacheproto.Request{
				Op: memcacheproto.Get, Keys: []string{key},
			})
			cli.SendTo(serverStack.IPAddr, 11211, req)
		})
	}

	engine.Run(simtime.Time(requests)*50*simtime.Microsecond + 10*simtime.Millisecond)

	hits, misses, _ := store.Stats()
	fmt.Printf("requests answered: %d (store: %d hits, %d misses)\n", lat.Count(), hits, misses)
	fmt.Printf("RTT over the wire: p50=%v p99=%v max=%v\n", lat.P50(), lat.P99(), lat.Max())
	fmt.Printf("frames on the wire: %d, rx errors: %d\n", wire.Sent(), serverStack.RxErrors())
	fmt.Printf("preemptions keeping GETs ahead of background work: %d\n", engine.Preemptions())
}
