// Live: Service Hunting on a real-time, goroutine-per-node network.
//
// The simulator reproduces the paper's numbers; this example runs the
// very same load balancer (internal/core) and virtual routers
// (internal/vrouter) — hunting SRH insertion, local accept/refuse,
// SYN-ACK flow learning — under real concurrency with the same
// byte-accurate packets, using internal/livenet. Four worker-pool servers
// behind one load balancer serve a stream of client queries; the busy-
// threshold policy steers load away from the two artificially slowed
// servers. It exits non-zero if any query goes unanswered.
//
//	go run ./examples/live
package main

import (
	"fmt"
	"net/netip"
	"os"
	"time"

	"srlb/internal/agent"
	"srlb/internal/core"
	"srlb/internal/ipv6"
	"srlb/internal/livenet"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	const (
		servers = 4
		queries = 400
	)
	vip := ipv6.MustAddr("2001:db8:f00d::1")
	lbAddr := ipv6.MustAddr("2001:db8:1b::1")

	net := livenet.NewNetwork()
	defer net.Close()

	addrs := make([]netip.Addr, servers)
	pool := make([]*livenet.Server, servers)
	for i := 0; i < servers; i++ {
		addrs[i] = ipv6.MustAddr(fmt.Sprintf("2001:db8:5::%x", i+1))
		service := 4 * time.Millisecond
		if i >= 2 {
			service = 40 * time.Millisecond // two deliberately slow replicas
		}
		pool[i] = livenet.NewServer(net, livenet.ServerConfig{
			Addr:    addrs[i],
			VIPs:    []netip.Addr{vip},
			LB:      lbAddr,
			Workers: 8,
			Policy:  agent.NewStatic(4), // SR4: refuse when ≥4 workers busy
			Demand:  func(packet.FlowKey, []byte) time.Duration { return service },
		})
	}

	livenet.NewLoadBalancer(net, core.Config{
		Addr:    lbAddr,
		VIPList: []core.VIPConfig{{Addr: vip, Scheme: selection.NewRandom(addrs, 2, rng.New(42))}},
	})

	client := livenet.NewClient(net, ipv6.MustAddr("2001:db8:c::1"), vip)

	start := time.Now()
	for i := 0; i < queries; i++ {
		client.Launch([]byte(fmt.Sprintf("GET /item/%d", i)))
		time.Sleep(2 * time.Millisecond) // ≈500 q/s offered
	}

	var done, refused int
	var total time.Duration
	for done+refused < queries {
		select {
		case o := <-client.Results():
			if o.Refused {
				refused++
			} else {
				done++
				total += o.RT
			}
		case <-time.After(5 * time.Second):
			return fmt.Errorf("timeout: %d results missing (LAN drops: %+v)", queries-done-refused, net.Stats())
		}
	}
	fmt.Printf("live run: %d ok, %d refused in %v\n", done, refused, time.Since(start).Round(time.Millisecond))
	if done > 0 {
		fmt.Printf("mean response time: %v\n", (total / time.Duration(done)).Round(time.Microsecond))
	}
	for i, s := range pool {
		kind := "fast"
		if i >= 2 {
			kind = "slow"
		}
		fmt.Printf("server %d (%s): accepted %d connections\n", i, kind, s.Accepted())
	}
	fmt.Println("note how hunting concentrates work on the fast replicas.")
	return nil
}
