package vrouter

import (
	"net/netip"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

var (
	client = ipv6.MustAddr("2001:db8:c::1")
	lbAddr = ipv6.MustAddr("2001:db8:1b::1")
	sAddr1 = ipv6.MustAddr("2001:db8:5::1")
	sAddr2 = ipv6.MustAddr("2001:db8:5::2")
	vip    = ipv6.MustAddr("2001:db8:f00d::1")
)

// rig wires one or two routers plus recording sinks at the LB and client
// addresses.
type rig struct {
	sim    *des.Simulator
	net    *netsim.Network
	r1, r2 *Router
	s1, s2 *appserver.Server // the routers' applications
	toLB   []*packet.Packet
	toCli  []*packet.Packet
}

func demandFromPayload(_ packet.FlowKey, payload []byte) time.Duration {
	if len(payload) == 0 {
		return 10 * time.Millisecond
	}
	return time.Duration(payload[0]) * time.Millisecond
}

func newRig(t *testing.T, pol1, pol2 agent.Policy, cfg appserver.Config) *rig {
	t.Helper()
	sim := des.New()
	net := netsim.New(sim, netsim.Config{VerifyChecksums: true})
	g := &rig{sim: sim, net: net}
	net.Attach(netsim.NodeFunc(func(p *packet.Packet) { g.toLB = append(g.toLB, p.Clone()) }), lbAddr)
	net.Attach(netsim.NodeFunc(func(p *packet.Packet) { g.toCli = append(g.toCli, p.Clone()) }), client)
	g.s1 = appserver.New(sim, "s1", cfg)
	g.r1 = New(net, Config{
		Addr: sAddr1, VIPs: []netip.Addr{vip}, LB: lbAddr,
		Policy: pol1, Server: g.s1, Demand: demandFromPayload,
	})
	net.Attach(g.r1, sAddr1)
	if pol2 != nil {
		g.s2 = appserver.New(sim, "s2", cfg)
		g.r2 = New(net, Config{
			Addr: sAddr2, VIPs: []netip.Addr{vip}, LB: lbAddr,
			Policy: pol2, Server: g.s2, Demand: demandFromPayload,
		})
		net.Attach(g.r2, sAddr2)
	}
	return g
}

// huntSYN builds the SYN the LB would emit for a 2-candidate hunt.
func huntSYN(demandMs byte) *packet.Packet {
	srh := srv6.MustNew(ipv6.ProtoTCP, sAddr1, sAddr2, vip)
	return &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: sAddr1},
		SRH: srh,
		TCP: tcpseg.Segment{
			SrcPort: 40000, DstPort: 80, Seq: 0,
			Flags:   tcpseg.FlagSYN,
			Payload: []byte{demandMs},
		},
	}
}

func TestAcceptAtFirstCandidate(t *testing.T) {
	g := newRig(t, agent.Always{}, nil, appserver.Default())
	g.net.Send(huntSYN(5))
	g.sim.Run()

	if g.r1.Counts.Get("hunt_accepts") != 1 {
		t.Fatal("first candidate did not accept")
	}
	// SYN-ACK must be routed to the LB with SRH [s1, lb, client], SL=1.
	if len(g.toLB) != 1 {
		t.Fatalf("LB received %d packets, want 1 SYN-ACK", len(g.toLB))
	}
	sa := g.toLB[0]
	if !sa.IsSYNACK() {
		t.Fatalf("LB packet flags = %v", sa.TCP.Flags)
	}
	if sa.SRH == nil || sa.SRH.SegmentsLeft != 1 {
		t.Fatalf("SYN-ACK SRH = %v", sa.SRH)
	}
	srv, err := sa.SRH.SegmentAtSL(sa.SRH.SegmentsLeft + 1)
	if err != nil || srv != sAddr1 {
		t.Fatalf("accepting server segment = %v (%v)", srv, err)
	}
	if sa.IP.Src != vip {
		t.Fatalf("SYN-ACK src = %v, want the VIP", sa.IP.Src)
	}
	// No response before the request payload arrives (causality).
	if len(g.toCli) != 0 {
		t.Fatalf("client received %d packets before sending its request", len(g.toCli))
	}
	// Complete the exchange: steered ACK+request (as the LB would emit).
	req := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: sAddr1},
		SRH: srv6.MustNew(ipv6.ProtoTCP, sAddr1, vip),
		TCP: tcpseg.Segment{
			SrcPort: 40000, DstPort: 80, Seq: 1, Ack: 2,
			Flags: tcpseg.FlagACK | tcpseg.FlagPSH, Payload: []byte{5},
		},
	}
	g.net.Send(req)
	g.sim.Run()
	if len(g.toCli) != 1 {
		t.Fatalf("client received %d packets, want 1 response", len(g.toCli))
	}
	if g.sim.Now() < 5*time.Millisecond {
		t.Fatalf("response too early: %v", g.sim.Now())
	}
}

func TestRefusalForwardsToSecond(t *testing.T) {
	g := newRig(t, agent.Never{}, agent.Never{}, appserver.Default())
	g.net.Send(huntSYN(5))
	g.sim.Run()

	if g.r1.Counts.Get("hunt_refusals") != 1 {
		t.Fatal("first candidate should refuse")
	}
	if g.r1.Counts.Get("forwarded") != 1 {
		t.Fatal("packet not forwarded to second candidate")
	}
	// Second candidate must force-accept despite Never policy (SL=1).
	if g.r2.Counts.Get("forced_accepts") != 1 {
		t.Fatal("second candidate did not force-accept")
	}
	if g.s2.Stats().Admitted != 1 {
		t.Fatal("second server did not admit")
	}
	if g.s1.Stats().Admitted != 0 {
		t.Fatal("first server wrongly admitted")
	}
}

func TestStaticPolicyDecidesOnBusyCount(t *testing.T) {
	cfg := appserver.Config{Workers: 8, Cores: 8, Backlog: 16, AbortOnOverflow: true}
	g := newRig(t, agent.NewStatic(2), agent.Always{}, cfg)
	// Occupy two workers with long requests (policy threshold c=2).
	g.s1.Offer(time.Second, nil)
	g.s1.Offer(time.Second, nil)
	g.net.Send(huntSYN(1))
	g.sim.RunUntil(100 * time.Millisecond)
	if g.r1.Counts.Get("hunt_refusals") != 1 {
		t.Fatal("busy first candidate should refuse (busy=2 ≥ c=2)")
	}
	if g.r2.Counts.Get("forced_accepts") != 1 {
		t.Fatal("second candidate should serve")
	}
}

func TestBacklogOverflowSendsRST(t *testing.T) {
	cfg := appserver.Config{Workers: 1, Cores: 1, Backlog: 0, AbortOnOverflow: true}
	g := newRig(t, agent.Always{}, nil, cfg)
	// First connection occupies the only worker …
	g.s1.Offer(time.Second, nil)
	// … so a hunted SYN that must be accepted (SL=1 leg) overflows.
	srh := srv6.MustNew(ipv6.ProtoTCP, sAddr1, vip)
	syn := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: sAddr1},
		SRH: srh,
		TCP: tcpseg.Segment{SrcPort: 40001, DstPort: 80, Flags: tcpseg.FlagSYN, Payload: []byte{1}},
	}
	g.net.Send(syn)
	g.sim.RunUntil(10 * time.Millisecond)
	if g.r1.Counts.Get("rst_overflow") != 1 {
		t.Fatal("overflow did not RST")
	}
	if len(g.toCli) != 1 || !g.toCli[0].TCP.Flags.Has(tcpseg.FlagRST) {
		t.Fatalf("client did not receive RST: %v", g.toCli)
	}
}

func TestDuplicateSYNResendsSYNACK(t *testing.T) {
	g := newRig(t, agent.Always{}, nil, appserver.Default())
	g.net.Send(huntSYN(200))
	g.sim.RunUntil(time.Millisecond)
	g.net.Send(huntSYN(200)) // retransmit of the same flow
	g.sim.RunUntil(2 * time.Millisecond)
	if g.r1.Counts.Get("dup_syn") != 1 {
		t.Fatal("duplicate SYN not detected")
	}
	if len(g.toLB) != 2 {
		t.Fatalf("LB saw %d SYN-ACKs, want 2", len(g.toLB))
	}
	if g.s1.Stats().Admitted != 1 {
		t.Fatal("duplicate SYN admitted twice")
	}
}

func TestSteeredDataForUnknownFlowRSTs(t *testing.T) {
	// A steered packet (SRH [server, vip], SL=1, as the LB emits mid-flow)
	// for a connection this server never accepted must be RST.
	g := newRig(t, agent.Always{}, nil, appserver.Default())
	data := &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: sAddr1},
		SRH: srv6.MustNew(ipv6.ProtoTCP, sAddr1, vip),
		TCP: tcpseg.Segment{SrcPort: 40002, DstPort: 80, Flags: tcpseg.FlagACK | tcpseg.FlagPSH, Payload: []byte("x")},
	}
	g.net.Send(data)
	g.sim.Run()
	if g.r1.Counts.Get("no_conn") != 1 {
		t.Fatalf("no_conn = %d, want 1", g.r1.Counts.Get("no_conn"))
	}
	if len(g.toCli) != 1 || !g.toCli[0].TCP.Flags.Has(tcpseg.FlagRST) {
		t.Fatalf("client did not receive RST for stale steering")
	}
}

func TestMustFieldsPanic(t *testing.T) {
	net := netsim.New(des.New(), netsim.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing fields")
		}
	}()
	New(net, Config{Addr: sAddr1})
}

func TestHopLimitGuard(t *testing.T) {
	g := newRig(t, agent.Never{}, agent.Never{}, appserver.Default())
	p := huntSYN(1)
	p.IP.HopLimit = 1 // next hop would hit 0
	g.net.Send(p)
	g.sim.Run()
	if g.r1.Counts.Get("hoplimit_exceeded") != 1 {
		t.Fatal("hop limit not enforced")
	}
	if g.r2.Counts.Get("forced_accepts") != 0 {
		t.Fatal("packet should have been dropped")
	}
}

func TestAccessors(t *testing.T) {
	g := newRig(t, agent.Always{}, nil, appserver.Default())
	if g.r1.Addr() != sAddr1 {
		t.Fatal("Addr() wrong")
	}
	if g.r1.Policy() == nil {
		t.Fatal("accessors returned nil")
	}
	if g.r1.OpenConns() != 0 {
		t.Fatal("fresh router has open conns")
	}
}
