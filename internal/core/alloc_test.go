package core

import (
	"net/netip"
	"testing"

	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/tcpseg"
)

// fixedScheme offers the same candidates for every flow without
// allocating, so the allocation budget below measures the balancer and
// the wire path alone.
type fixedScheme []netip.Addr

func (f fixedScheme) Pick(packet.FlowKey) []netip.Addr { return f }
func (f fixedScheme) Name() string                     { return "fixed" }

// TestDispatchAllocationFree: one SYN (hunt SRH) or one steered packet
// (flow-table hit, steer SRH) through the balancer — dispatch, marshal,
// delivery and re-parse at the server — allocates nothing once the
// network's free lists are warm. The SRH is written into the packet's
// own storage on both paths.
func TestDispatchAllocationFree(t *testing.T) {
	sim := des.New()
	net := netsim.New(sim, netsim.Config{VerifyChecksums: true})
	var delivered int
	sink := netsim.NodeFunc(func(p *packet.Packet) {
		if p.SRH == nil || p.SRH.Segments[0] != vip {
			t.Fatalf("server received %v, want an SRH ending at the VIP", p)
		}
		delivered++
	})
	net.Attach(sink, sAddr1, sAddr2)
	lb := New(net, Config{
		Addr:    lbAddr,
		VIPList: []VIPConfig{{Addr: vip, Scheme: fixedScheme{sAddr1, sAddr2}}},
	})
	steered := packet.FlowKey{Src: client, Dst: vip, SrcPort: 50000, DstPort: 80}
	lb.SeedFlow(steered, sAddr2)

	var pkt packet.Packet
	dispatch := func(port uint16, flags tcpseg.Flags) {
		pkt = packet.Packet{
			IP:  ipv6.Header{Src: client, Dst: vip, HopLimit: packet.DefaultHopLimit},
			TCP: tcpseg.Segment{SrcPort: port, DstPort: 80, Flags: flags},
		}
		lb.Handle(&pkt)
		sim.Run()
	}
	for _, tc := range []struct {
		name  string
		port  uint16
		flags tcpseg.Flags
	}{
		{"syn", 40000, tcpseg.FlagSYN},
		{"steered", steered.SrcPort, tcpseg.FlagACK},
	} {
		before := delivered
		if allocs := testing.AllocsPerRun(200, func() { dispatch(tc.port, tc.flags) }); allocs != 0 {
			t.Errorf("%s path: %v allocs per packet, want 0", tc.name, allocs)
		}
		if delivered == before {
			t.Fatalf("%s path delivered nothing", tc.name)
		}
	}
	if n := lb.Counts.Get("hunts_started"); n == 0 {
		t.Error("no hunt started")
	}
	if n := lb.Counts.Get("steered"); n == 0 {
		t.Error("no packet steered")
	}
}
