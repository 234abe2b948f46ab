package netsim

import (
	"net/netip"
	"testing"
	"time"

	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

var (
	addrA = ipv6.MustAddr("2001:db8::a")
	addrB = ipv6.MustAddr("2001:db8::b")
	addrC = ipv6.MustAddr("2001:db8::c")
)

func mkPkt(src, dst string) *packet.Packet {
	return &packet.Packet{
		IP:  ipv6.Header{Src: ipv6.MustAddr(src), Dst: ipv6.MustAddr(dst)},
		TCP: tcpseg.Segment{SrcPort: 1000, DstPort: 80, Flags: tcpseg.FlagSYN},
	}
}

func TestDeliveryWithLatency(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{Latency: time.Millisecond, VerifyChecksums: true})
	var gotAt time.Duration
	var got *packet.Packet
	net.Attach(NodeFunc(func(p *packet.Packet) {
		gotAt = sim.Now()
		got = p.Clone()
	}), addrB)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if gotAt != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms", gotAt)
	}
	if got.IP.Src != addrA {
		t.Fatalf("src = %v", got.IP.Src)
	}
	if net.Counts.Get("tx") != 1 || net.Counts.Get("rx") != 1 {
		t.Fatal("counters wrong")
	}
}

func TestDefaultLatency(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	var at time.Duration
	net.Attach(NodeFunc(func(*packet.Packet) { at = sim.Now() }), addrB)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if at != DefaultLatency {
		t.Fatalf("at = %v, want %v", at, DefaultLatency)
	}
}

func TestUnroutableCounted(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if net.Counts.Get("unroutable") != 1 {
		t.Fatal("unroutable not counted")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrA)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate attach")
		}
	}()
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrA)
}

func TestMultiAddressNode(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	count := 0
	node := NodeFunc(func(*packet.Packet) { count++ })
	net.Attach(node, addrB, addrC)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	net.Send(mkPkt("2001:db8::a", "2001:db8::c"))
	sim.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestLoss(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{LossProb: 1.0})
	delivered := false
	net.Attach(NodeFunc(func(*packet.Packet) { delivered = true }), addrB)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if delivered {
		t.Fatal("packet delivered despite 100% loss")
	}
	if net.Counts.Get("lost") != 1 {
		t.Fatal("loss not counted")
	}
}

func TestLossStatistics(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{LossProb: 0.3, Seed: 7})
	delivered := 0
	net.Attach(NodeFunc(func(*packet.Packet) { delivered++ }), addrB)
	const n = 10000
	for i := 0; i < n; i++ {
		net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	}
	sim.Run()
	frac := float64(delivered) / n
	if frac < 0.67 || frac > 0.73 {
		t.Fatalf("delivered fraction = %v, want ≈0.7", frac)
	}
}

func TestJitterBounded(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{Latency: time.Millisecond, JitterFrac: 0.5, Seed: 3})
	var times []time.Duration
	net.Attach(NodeFunc(func(*packet.Packet) { times = append(times, sim.Now()) }), addrB)
	for i := 0; i < 1000; i++ {
		net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	}
	sim.Run()
	for _, at := range times {
		if at < 500*time.Microsecond || at > 1500*time.Microsecond {
			t.Fatalf("delivery at %v outside jitter bounds", at)
		}
	}
}

// TestSRHSurvivesTheWire checks that segment routing state is carried
// byte-accurately across a hop.
func TestSRHSurvivesTheWire(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{VerifyChecksums: true})
	var got *packet.Packet
	net.Attach(NodeFunc(func(p *packet.Packet) { got = p.Clone() }), addrB)

	p := mkPkt("2001:db8::a", "2001:db8::b")
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC)
	net.Send(p)
	sim.Run()
	if got == nil || got.SRH == nil {
		t.Fatal("SRH lost on the wire")
	}
	if got.SRH.SegmentsLeft != 1 {
		t.Fatalf("SL = %d", got.SRH.SegmentsLeft)
	}
	final, _ := got.SRH.Final()
	if final != addrC {
		t.Fatalf("final = %v", final)
	}
}

func TestTapSeesPackets(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{})
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrB)
	count := 0
	net.AddTap(func(at time.Duration, dst netip.Addr, pkt *packet.Packet) {
		count++
		if dst != addrB {
			t.Errorf("tap dst = %v", dst)
		}
		if at != sim.Now() {
			t.Errorf("tap at = %v, now = %v", at, sim.Now())
		}
	})
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if count != 2 {
		t.Fatalf("tap saw %d packets, want 2", count)
	}
}

// TestTapCloneSurvivesStorageReuse: deliveries recycle one Packet and
// its inline SRH storage, and the node mutates the delivered SRH in
// place; a Tap's Clone must stay exactly the packet as it arrived.
func TestTapCloneSurvivesStorageReuse(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{VerifyChecksums: true})
	var delivered []*packet.Packet
	net.Attach(NodeFunc(func(p *packet.Packet) {
		delivered = append(delivered, p)
		if p.SRH != nil {
			p.SRH.Advance() //nolint:errcheck // scribble on the storage
			p.SRH.Segments[0] = addrA
		}
	}), addrB)
	var clones []*packet.Packet
	net.AddTap(func(_ time.Duration, _ netip.Addr, p *packet.Packet) { clones = append(clones, p.Clone()) })

	long := make([]netip.Addr, packet.InlineSegments+1) // spills to the heap
	for i := range long {
		long[i] = addrB
	}
	long[len(long)-1] = addrC
	paths := [][]netip.Addr{{addrB, addrC, addrC}, nil, {addrB, addrC}, long, {addrB, addrB, addrC}}
	for _, path := range paths {
		p := mkPkt("2001:db8::a", "2001:db8::b")
		if path != nil {
			p.SRH = srv6.MustNew(ipv6.ProtoTCP, path...)
		}
		net.Send(p)
		sim.Run()
	}
	if len(clones) != len(paths) {
		t.Fatalf("tap saw %d packets, want %d", len(clones), len(paths))
	}
	if delivered[0] != delivered[len(delivered)-1] {
		t.Fatal("deliveries did not reuse the Packet; the test exercises nothing")
	}
	for i, path := range paths {
		c := clones[i]
		if path == nil {
			if c.SRH != nil {
				t.Errorf("packet %d: clone grew an SRH %v", i, c.SRH)
			}
			continue
		}
		want := srv6.MustNew(ipv6.ProtoTCP, path...)
		if c.SRH == nil || c.SRH.String() != want.String() {
			t.Errorf("packet %d: clone SRH %v, want %v", i, c.SRH, want)
		}
	}
}

func TestSynchronousReplyFromHandler(t *testing.T) {
	// A node may send from within Handle (that is how servers reply);
	// the reply must be delivered on a later event, not recursively.
	sim := des.New()
	net := New(sim, Config{Latency: time.Millisecond})
	gotReply := false
	net.Attach(NodeFunc(func(p *packet.Packet) {
		reply := mkPkt("2001:db8::b", "2001:db8::a")
		net.Send(reply)
	}), addrB)
	net.Attach(NodeFunc(func(p *packet.Packet) { gotReply = true }), addrA)
	net.Send(mkPkt("2001:db8::a", "2001:db8::b"))
	sim.Run()
	if !gotReply {
		t.Fatal("reply not delivered")
	}
	if sim.Now() != 2*time.Millisecond {
		t.Fatalf("round trip took %v, want 2ms", sim.Now())
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	sim := des.New()
	net := New(sim, Config{VerifyChecksums: true})
	net.Attach(NodeFunc(func(*packet.Packet) {}), addrB)
	p := mkPkt("2001:db8::a", "2001:db8::b")
	p.SRH = srv6.MustNew(ipv6.ProtoTCP, addrB, addrC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send(p)
		sim.Run()
	}
}
