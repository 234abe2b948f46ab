package livenet

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"srlb/internal/core"
	"srlb/internal/des"
	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// parityVIP is the second service of the parity trace; unlike liveVIP it
// steers flow-table misses through a consistent-hash fallback.
var parityVIP = ipv6.MustAddr("2001:db8:f00d::2")

// parityConfig builds a fresh two-VIP balancer config. Called once per
// runtime, it yields schemes in identical states, so identical packet
// sequences draw identical candidates.
func parityConfig(t *testing.T, servers []netip.Addr) core.Config {
	fallback, err := selection.NewConsistentHash(servers, 101)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Addr: liveLB,
		VIPList: []core.VIPConfig{
			{Addr: liveVIP, Scheme: selection.NewRandom(servers, 2, rng.New(11))},
			{Addr: parityVIP, Scheme: selection.NewRandom(servers, 2, rng.New(12)), Fallback: fallback},
		},
	}
}

// parityTrace is a seeded packet trace for the balancer in which every
// packet makes it emit exactly one packet: client SYNs for two VIPs, the
// accepting servers' SYN-ACK returns, steered requests, retransmitted
// SYNs for bound and unbound flows, FINs, and a non-SYN miss on the VIP
// with a fallback.
func parityTrace(seed uint64, servers []netip.Addr) []*packet.Packet {
	r := rng.New(seed)
	const flows, unanswered = 16, 2
	key := func(i int) packet.FlowKey {
		vip := liveVIP
		if i%2 == 1 {
			vip = parityVIP
		}
		return packet.FlowKey{Src: liveCli, Dst: vip, SrcPort: uint16(20000 + i), DstPort: 80}
	}
	fromClient := func(k packet.FlowKey, flags tcpseg.Flags, payload string) *packet.Packet {
		return &packet.Packet{
			IP:  ipv6.Header{Src: k.Src, Dst: k.Dst},
			TCP: tcpseg.Segment{SrcPort: k.SrcPort, DstPort: k.DstPort, Flags: flags, Payload: []byte(payload)},
		}
	}
	synack := func(k packet.FlowKey, server netip.Addr) *packet.Packet {
		srh := srv6.MustNew(ipv6.ProtoTCP, server, liveLB, k.Src)
		srh.Advance() // the server consumed its own segment; the LB is active
		return &packet.Packet{
			IP:  ipv6.Header{Src: k.Dst, Dst: liveLB},
			SRH: srh,
			TCP: tcpseg.Segment{SrcPort: k.DstPort, DstPort: k.SrcPort, Seq: 1, Ack: 1, Flags: tcpseg.FlagSYN | tcpseg.FlagACK},
		}
	}
	var trace []*packet.Packet
	for _, i := range r.Perm(flows) {
		trace = append(trace, fromClient(key(i), tcpseg.FlagSYN, fmt.Sprintf("GET /%d", i)))
	}
	answered := r.Perm(flows - unanswered)
	for _, i := range answered {
		trace = append(trace, synack(key(i), servers[r.IntN(len(servers))]))
	}
	for _, i := range answered {
		trace = append(trace, fromClient(key(i), tcpseg.FlagACK|tcpseg.FlagPSH, fmt.Sprintf("GET /%d", i)))
	}
	trace = append(trace,
		fromClient(key(answered[0]), tcpseg.FlagSYN, "retransmit"), // bound: rebound to its server
		fromClient(key(flows-1), tcpseg.FlagSYN, "retransmit"),     // unbound: hunts again
	)
	for _, i := range answered[:4] {
		trace = append(trace, fromClient(key(i), tcpseg.FlagACK|tcpseg.FlagFIN, ""))
	}
	miss := packet.FlowKey{Src: liveCli, Dst: parityVIP, SrcPort: 30000, DstPort: 80}
	return append(trace, fromClient(miss, tcpseg.FlagACK|tcpseg.FlagPSH, "lost state"))
}

// describe renders what the balancer decided for one outbound packet:
// where it goes, its segment list and its flags.
func describe(p *packet.Packet) string {
	var segs []string
	if p.SRH != nil {
		for _, s := range p.SRH.Segments {
			segs = append(segs, s.String())
		}
		segs = append(segs, fmt.Sprintf("SL=%d", p.SRH.SegmentsLeft))
	}
	return fmt.Sprintf("dst=%v srh=[%s] flags=%v port=%d", p.IP.Dst, strings.Join(segs, " "), p.TCP.Flags, p.TCP.SrcPort)
}

// bindings renders a balancer's flow table as sorted flow→server pairs
// (deadlines differ between runtimes by construction).
func bindings(lb *core.LoadBalancer) []string {
	var out []string
	for _, b := range lb.ExportFlows() {
		out = append(out, fmt.Sprintf("%v:%d→%v closing=%v", b.Key.Dst, b.Key.SrcPort, b.Backend, b.Closing))
	}
	slices.Sort(out)
	return out
}

// TestLiveSimSteeringParity replays one seeded trace into a balancer on
// the simulated LAN and into one on the live LAN: one implementation,
// two runtimes, so both must emit the same packets and learn the same
// flow table.
func TestLiveSimSteeringParity(t *testing.T) {
	servers := liveServerAddrs(3)
	trace := parityTrace(42, servers)
	endpoints := append(slices.Clone(servers), liveCli)

	sim := des.New()
	simNet := netsim.New(sim, netsim.Config{VerifyChecksums: true})
	var simOut []string
	simNet.Attach(netsim.NodeFunc(func(p *packet.Packet) { simOut = append(simOut, describe(p)) }), endpoints...)
	cfg := parityConfig(t, servers)
	simLB := core.New(simNet, cfg)
	simNet.Attach(simLB, simLB.Addrs()...)
	for _, p := range trace {
		simNet.Send(p)
		sim.Run()
	}

	net := NewNetwork()
	defer net.Close()
	got := make(chan string, len(trace)+1)
	net.Attach(func(p *packet.Packet) { got <- describe(p) }, endpoints...)
	liveLB := NewLoadBalancer(net, parityConfig(t, servers))
	var liveOut []string
	for i, p := range trace {
		if err := net.Send(p); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-got:
			liveOut = append(liveOut, d)
		case <-time.After(5 * time.Second):
			t.Fatalf("trace packet %d (%v): live balancer emitted nothing", i, p)
		}
	}

	if len(simOut) != len(trace) {
		t.Fatalf("simulated balancer emitted %d packets for %d trace packets", len(simOut), len(trace))
	}
	for i := range simOut {
		if simOut[i] != liveOut[i] {
			t.Fatalf("outbound packet %d differs:\nsim  %s\nlive %s", i, simOut[i], liveOut[i])
		}
	}
	var liveFlows []string
	var liveCounts map[string]uint64
	keys := []string{"syn_rebound", "hunts_started", "flows_learned", "closing_observed", "miss_fallback", "steered"}
	liveLB.Inspect(func(lb *core.LoadBalancer) {
		liveFlows = bindings(lb)
		liveCounts = make(map[string]uint64)
		for _, k := range keys {
			liveCounts[k] = lb.Counts.Get(k)
		}
	})
	if simFlows := bindings(simLB); !slices.Equal(simFlows, liveFlows) {
		t.Fatalf("flow tables differ:\nsim  %v\nlive %v", simFlows, liveFlows)
	}
	for _, k := range keys {
		if n := simLB.Counts.Get(k); n == 0 || n != liveCounts[k] {
			t.Errorf("counter %s: sim %d, live %d (want equal and non-zero)", k, n, liveCounts[k])
		}
	}
	select {
	case d := <-got:
		t.Fatalf("live balancer emitted an extra packet: %s", d)
	case <-time.After(20 * time.Millisecond):
	}
}
