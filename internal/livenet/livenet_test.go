package livenet

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/core"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/tcpseg"
	"srlb/internal/vrouter"
)

var (
	liveVIP = ipv6.MustAddr("2001:db8:f00d::1")
	liveLB  = ipv6.MustAddr("2001:db8:1b::1")
	liveCli = ipv6.MustAddr("2001:db8:c::1")
)

func liveServerAddrs(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = ipv6.MustAddr(fmt.Sprintf("2001:db8:5::%x", i+1))
	}
	return out
}

// service prices every request at d.
func service(d time.Duration) vrouter.DemandFn {
	return func(packet.FlowKey, []byte) time.Duration { return d }
}

// newLiveLB attaches a balancer for liveVIP choosing k of addrs at random.
func newLiveLB(net *Network, addrs []netip.Addr, k int, seed uint64) *LoadBalancer {
	return NewLoadBalancer(net, core.Config{
		Addr:    liveLB,
		VIPList: []core.VIPConfig{{Addr: liveVIP, Scheme: selection.NewRandom(addrs, k, rng.New(seed))}},
	})
}

func TestNetworkDelivery(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	got := make(chan *packet.Packet, 1)
	addr := ipv6.MustAddr("2001:db8::1")
	net.Attach(func(p *packet.Packet) { got <- p }, addr)
	p := &packet.Packet{
		IP:  ipv6.Header{Src: liveCli, Dst: addr},
		TCP: tcpseg.Segment{SrcPort: 1, DstPort: 2, Flags: tcpseg.FlagSYN, Payload: []byte("hi")},
	}
	if err := net.Send(p); err != nil {
		t.Fatal(err)
	}
	select {
	case q := <-got:
		if string(q.TCP.Payload) != "hi" {
			t.Fatalf("payload %q", q.TCP.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("packet not delivered")
	}
}

func TestNetworkUnroutableCounted(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	p := &packet.Packet{
		IP:  ipv6.Header{Src: liveCli, Dst: liveVIP},
		TCP: tcpseg.Segment{Flags: tcpseg.FlagSYN},
	}
	if err := net.Send(p); err != nil {
		t.Fatalf("unroutable send should not error: %v", err)
	}
	if st := net.Stats(); st != (Stats{Unroutable: 1}) {
		t.Fatalf("stats = %+v, want one unroutable drop", st)
	}
}

// A node whose handler is stalled cannot block its senders: once its
// queue is full, every further packet is tail-dropped and counted.
func TestNetworkQueueFullCounted(t *testing.T) {
	const k = 7
	net := NewNetwork()
	defer net.Close()
	addr := ipv6.MustAddr("2001:db8::4")
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	net.Attach(func(*packet.Packet) {
		once.Do(func() { close(entered) })
		<-release
	}, addr)
	defer close(release)
	p := &packet.Packet{
		IP:  ipv6.Header{Src: liveCli, Dst: addr},
		TCP: tcpseg.Segment{Flags: tcpseg.FlagSYN},
	}
	// The first packet occupies the handler, so the queue itself is empty.
	if err := net.Send(p); err != nil {
		t.Fatal(err)
	}
	<-entered
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < QueueLen+k; i++ {
			if err := net.Send(p); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a stalled node")
	}
	if st := net.Stats(); st != (Stats{QueueFull: k}) {
		t.Fatalf("stats = %+v, want QueueFull = %d", st, k)
	}
}

func TestNetworkClose(t *testing.T) {
	net := NewNetwork()
	addr := ipv6.MustAddr("2001:db8::2")
	net.Attach(func(*packet.Packet) {}, addr)
	net.Close()
	net.Close() // idempotent
	p := &packet.Packet{
		IP:  ipv6.Header{Src: liveCli, Dst: addr},
		TCP: tcpseg.Segment{Flags: tcpseg.FlagSYN},
	}
	if err := net.Send(p); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

// Sends racing Close are delivered, dropped or refused with ErrClosed;
// none panics on the closed queue.
func TestSendRacingClose(t *testing.T) {
	net := NewNetwork()
	addr := ipv6.MustAddr("2001:db8::5")
	net.Attach(func(*packet.Packet) {}, addr)
	var started, done sync.WaitGroup
	for g := 0; g < 4; g++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			p := &packet.Packet{
				IP:  ipv6.Header{Src: liveCli, Dst: addr},
				TCP: tcpseg.Segment{Flags: tcpseg.FlagSYN},
			}
			for i := 0; ; i++ {
				err := net.Send(p)
				if i == 0 {
					started.Done()
				}
				if err != nil {
					if err != ErrClosed {
						t.Errorf("send: %v", err)
					}
					return
				}
			}
		}()
	}
	started.Wait()
	net.Close()
	done.Wait()
}

func TestDuplicateAttachPanics(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addr := ipv6.MustAddr("2001:db8::3")
	net.Attach(func(*packet.Packet) {}, addr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach(func(*packet.Packet) {}, addr)
}

// TestEndToEndHunting runs the full live protocol: N servers, one LB, one
// client, a few hundred queries — every query must complete, and flow
// learning must route follow-ups correctly.
func TestEndToEndHunting(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(4)
	servers := make([]*Server, len(addrs))
	for i, a := range addrs {
		servers[i] = NewServer(net, ServerConfig{
			Addr: a, VIPs: []netip.Addr{liveVIP}, LB: liveLB,
			Workers: 16,
			Policy:  agent.NewStatic(8),
			Demand:  service(time.Millisecond),
		})
	}
	newLiveLB(net, addrs, 2, 1)
	client := NewClient(net, liveCli, liveVIP)

	const n = 400
	for i := 0; i < n; i++ {
		client.Launch([]byte(fmt.Sprintf("GET /%d", i)))
	}
	done, refused := 0, 0
	deadline := time.After(10 * time.Second)
	for done+refused < n {
		select {
		case o := <-client.Results():
			if o.Refused {
				refused++
			} else {
				done++
			}
		case <-deadline:
			t.Fatalf("timeout: %d/%d finished", done+refused, n)
		}
	}
	if done == 0 {
		t.Fatal("nothing completed")
	}
	var accepted uint64
	for _, s := range servers {
		accepted += s.Accepted()
	}
	if accepted != uint64(done) {
		t.Fatalf("servers accepted %d, client completed %d", accepted, done)
	}
}

// TestPolicySkew verifies hunting steers load away from busy servers in
// the live runtime: a server with zero capacity must accept ~nothing.
func TestPolicySkew(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(2)
	// Server 0 refuses everything (Never); server 1 accepts.
	s0 := NewServer(net, ServerConfig{
		Addr: addrs[0], VIPs: []netip.Addr{liveVIP}, LB: liveLB,
		Workers: 8, Policy: agent.Never{},
		Demand: service(time.Millisecond),
	})
	s1 := NewServer(net, ServerConfig{
		Addr: addrs[1], VIPs: []netip.Addr{liveVIP}, LB: liveLB,
		Workers: 64, Policy: agent.Never{},
		Demand: service(time.Millisecond),
	})
	newLiveLB(net, addrs, 2, 2)
	client := NewClient(net, liveCli, liveVIP)

	const n = 200
	for i := 0; i < n; i++ {
		client.Launch([]byte("x"))
		time.Sleep(500 * time.Microsecond)
	}
	finished := 0
	deadline := time.After(10 * time.Second)
	for finished < n {
		select {
		case <-client.Results():
			finished++
		case <-deadline:
			t.Fatalf("timeout: %d/%d", finished, n)
		}
	}
	// With Never policies, the SECOND candidate always serves; both
	// servers appear in second position about half the time each, so both
	// accept, but that exercises the forced-accept leg under concurrency.
	if s0.Accepted()+s1.Accepted() != n {
		t.Fatalf("accepted %d+%d != %d", s0.Accepted(), s1.Accepted(), n)
	}
}

func TestLoadBalancerFlowLearning(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(2)
	for _, a := range addrs {
		NewServer(net, ServerConfig{
			Addr: a, VIPs: []netip.Addr{liveVIP}, LB: liveLB,
			Workers: 8, Policy: agent.Always{},
			Demand: service(50 * time.Millisecond),
		})
	}
	lb := newLiveLB(net, addrs, 2, 3)
	client := NewClient(net, liveCli, liveVIP)
	client.Launch([]byte("q"))

	// The flow should appear in the LB table once the SYN-ACK relays.
	ok := false
	for i := 0; i < 100; i++ {
		var flows int
		lb.Inspect(func(c *core.LoadBalancer) { flows = c.FlowCount() })
		if flows == 1 {
			ok = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		t.Fatal("flow never learned")
	}
	select {
	case <-client.Results():
	case <-time.After(5 * time.Second):
		t.Fatal("query never finished")
	}
}

func TestConcurrentClients(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(3)
	for _, a := range addrs {
		NewServer(net, ServerConfig{
			Addr: a, VIPs: []netip.Addr{liveVIP}, LB: liveLB,
			Workers: 32, Policy: agent.NewStatic(16),
			Demand: service(time.Millisecond),
		})
	}
	newLiveLB(net, addrs, 2, 4)

	const clients = 4
	const perClient = 100
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cli := NewClient(net, ipv6.MustAddr(fmt.Sprintf("2001:db8:c::%x", c+1)), liveVIP)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				cli.Launch([]byte("q"))
			}
			got := 0
			deadline := time.After(10 * time.Second)
			for got < perClient {
				select {
				case <-cli.Results():
					got++
				case <-deadline:
					t.Errorf("client timed out at %d/%d", got, perClient)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerOverflowRSTs(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	addrs := liveServerAddrs(1)
	NewServer(net, ServerConfig{
		Addr: addrs[0], VIPs: []netip.Addr{liveVIP}, LB: liveLB,
		Workers: 1, Policy: agent.Always{},
		Demand: service(200 * time.Millisecond),
	})
	newLiveLB(net, addrs, 1, 5)
	client := NewClient(net, liveCli, liveVIP)
	for i := 0; i < 5; i++ {
		client.Launch([]byte("q"))
	}
	var ok, refused int
	deadline := time.After(5 * time.Second)
	for ok+refused < 5 {
		select {
		case o := <-client.Results():
			if o.Refused {
				refused++
			} else {
				ok++
			}
		case <-deadline:
			t.Fatalf("timeout: ok=%d refused=%d", ok, refused)
		}
	}
	if refused == 0 {
		t.Fatal("single-worker server never refused under burst")
	}
	if ok == 0 {
		t.Fatal("nothing served")
	}
}
