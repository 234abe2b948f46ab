// Package core implements SRLB's primary contribution: the load balancer
// that performs Service Hunting within the IP forwarding plane (paper
// §II).
//
// The load balancer sits at the edge of the data center and advertises
// routes for the virtual IPs (VIPs). Its entire job is forwarding-plane
// state manipulation — it never terminates connections and knows nothing
// about application protocols:
//
//   - On a new flow's SYN, it selects candidate servers (two at random in
//     the paper's evaluation) and inserts an SRH listing them, with the
//     VIP as the final segment. The candidates then "hunt": each may
//     accept or pass the connection along, based on purely local state.
//   - The accepting server's SYN-ACK travels back through the LB carrying
//     an SRH [server, LB, client]; the LB reads the accepting server from
//     the segment list, installs flow state, strips the SRH, and forwards
//     to the (SR-oblivious) client.
//   - Every subsequent client packet of the flow is steered straight to
//     the accepting server through a one-segment SRH.
//   - FIN/RST mark the flow closing; entries then expire after a short
//     linger (and idle flows after a TTL), bounding LB state.
//
// Dispatch is indexed: VIP configuration compiles into a dense table of
// per-VIP entries plus one address→id map, so the per-packet cost is a
// single map lookup followed by array indexing — O(1) in the number of
// advertised services, whether the balancer serves four VIPs or ten
// thousand.
package core

import (
	"fmt"
	"net/netip"
	"time"

	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/metrics"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/selection"
	"srlb/internal/tcpseg"
)

// VIPConfig declares one advertised VIP in the indexed configuration
// form. Position in Config.VIPList is the VIP's dense internal id, so a
// caller that builds the list in a deterministic order gets a fully
// deterministic balancer without any map-iteration concerns.
type VIPConfig struct {
	// Addr is the virtual IP clients address.
	Addr netip.Addr
	// Scheme selects candidate servers for new flows.
	Scheme selection.Scheme
	// Fallback, when non-nil, steers non-SYN flow-table misses for this
	// VIP (overriding Config.MissFallback). A consistent-hash scheme
	// makes post-failure steering deterministic.
	Fallback selection.Scheme
}

// Config assembles a load balancer.
type Config struct {
	// Addr is the LB's own address (the segment servers route SYN-ACKs
	// through).
	Addr netip.Addr
	// VIPList declares the advertised VIPs (at least one) in dense-id
	// order: one slice, no per-VIP map churn, ids assigned by position.
	VIPList []VIPConfig
	// Flows tunes the flow table (zero value = defaults).
	Flows flowtable.Config
	// SweepInterval bounds how often expired flow entries are collected.
	// Sweeps run opportunistically on the datapath (at most one per
	// interval), never from a free-running timer — so an idle simulation
	// terminates. Default 1s; negative disables.
	SweepInterval time.Duration
	// MissFallback, when non-nil, selects a server for non-SYN packets
	// that miss the flow table (e.g. after LB state loss) instead of
	// dropping them, for every VIP without its own VIPConfig.Fallback. A
	// consistent-hash scheme makes this deterministic.
	MissFallback selection.Scheme
}

// vipEntry is the compiled per-VIP dispatch state: everything the hot
// path needs after the single vipIndex lookup, in one cache-friendly
// slot. The per-VIP SYN counter lives here as a plain integer — no
// string-keyed metrics map on the per-packet path.
type vipEntry struct {
	addr     netip.Addr
	scheme   selection.Scheme
	fallback selection.Scheme
	// stateful and resteer cache the scheme's optional capabilities,
	// probed once at compile time (through any delegation wrapper): nil
	// for the paper's plain schemes, so the load-oblivious hot path
	// stays free of interface probes per packet.
	stateful selection.Stateful
	resteer  selection.Resteerer
	syns     uint64
}

// LoadBalancer is the SRLB forwarding-plane element.
type LoadBalancer struct {
	cfg       Config
	port      netsim.Port
	flows     *flowtable.Table
	lastSweep time.Duration
	Counts    *metrics.Counter
	// vipIndex maps each advertised VIP to its dense id in vips. This is
	// the only per-packet map lookup on the dispatch path.
	vipIndex map[netip.Addr]int32
	vips     []vipEntry
}

// New builds the LB on the given runtime port (a *netsim.Network in the
// simulator, a livenet node in real time). It does not attach itself:
// the caller binds each of its Addrs to it on the LAN — as unicast
// addresses, or as members of the anycast/ECMP groups a multi-replica
// deployment shares (netsim.AttachAnycast).
func New(port netsim.Port, cfg Config) *LoadBalancer {
	if err := ipv6.CheckAddr(cfg.Addr); err != nil {
		panic(fmt.Sprintf("core: bad LB addr: %v", err))
	}
	if len(cfg.VIPList) == 0 {
		panic("core: at least one VIP is required")
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = time.Second
	}
	lb := &LoadBalancer{
		cfg:    cfg,
		port:   port,
		flows:  flowtable.New(cfg.Flows),
		Counts: metrics.NewCounter(),
	}
	lb.compileVIPs()
	return lb
}

// compileVIPs builds the indexed dispatch table from Config.VIPList.
// Allocation is constant-count (one slice, one presized map) regardless
// of VIP count.
func (lb *LoadBalancer) compileVIPs() {
	list := lb.cfg.VIPList
	lb.vips = make([]vipEntry, len(list))
	lb.vipIndex = make(map[netip.Addr]int32, len(list))
	for i, vc := range list {
		if err := ipv6.CheckAddr(vc.Addr); err != nil {
			panic(fmt.Sprintf("core: bad VIP: %v", err))
		}
		if _, dup := lb.vipIndex[vc.Addr]; dup {
			panic(fmt.Sprintf("core: duplicate VIP %v", vc.Addr))
		}
		fb := vc.Fallback
		if fb == nil {
			fb = lb.cfg.MissFallback
		}
		lb.vips[i] = vipEntry{
			addr:     vc.Addr,
			scheme:   vc.Scheme,
			fallback: fb,
			stateful: selection.AsStateful(vc.Scheme),
			resteer:  selection.AsResteerer(vc.Scheme),
		}
		lb.vipIndex[vc.Addr] = int32(i)
	}
}

// Addr returns the LB's address.
func (lb *LoadBalancer) Addr() netip.Addr { return lb.cfg.Addr }

// Addrs returns every address the LB must be reachable at for the
// caller to attach: its own, then each VIP in id order.
func (lb *LoadBalancer) Addrs() []netip.Addr {
	addrs := make([]netip.Addr, 0, 1+len(lb.vips))
	addrs = append(addrs, lb.cfg.Addr)
	for i := range lb.vips {
		addrs = append(addrs, lb.vips[i].addr)
	}
	return addrs
}

// NumVIPs returns how many VIPs the balancer advertises.
func (lb *LoadBalancer) NumVIPs() int { return len(lb.vips) }

// VIPSYNs returns the number of client SYNs this replica received for
// the given VIP — the per-service demand split of a multi-VIP cluster.
// Summed across replicas it equals the queries offered to the VIP (each
// query sends one SYN unless client retransmission is enabled).
func (lb *LoadBalancer) VIPSYNs(vip netip.Addr) uint64 {
	id, ok := lb.vipIndex[vip]
	if !ok {
		return 0
	}
	return lb.vips[id].syns
}

// FlowCount returns the number of tracked flows.
func (lb *LoadBalancer) FlowCount() int { return lb.flows.Len() }

// FlowStats returns flow-table counters.
func (lb *LoadBalancer) FlowStats() flowtable.Stats { return lb.flows.Stats() }

// ResetFlows discards all learned flow state — a replica restarting
// after a failure comes back stateless. The §II-B consistent-hashing
// selection (and the MissFallback steering path) exist precisely so
// that this is survivable without state synchronization: any replica
// recomputes the same flow→server mapping from the packet alone.
func (lb *LoadBalancer) ResetFlows() {
	lb.flows = flowtable.New(lb.cfg.Flows)
}

// SeedFlow installs a flow→server binding directly, bypassing SYN-ACK
// learning — the warm-handoff hook (a recovering replica inheriting
// another's connection state) and the dispatch benchmarks' way of
// exercising the steered-hit path without running the simulator.
func (lb *LoadBalancer) SeedFlow(flow packet.FlowKey, server netip.Addr) {
	lb.flows.Insert(lb.port.Now(), flow, server)
}

// ExportFlows snapshots every live flow binding at the port's current
// time — the donor half of a warm handoff. The snapshot carries
// absolute deadlines and closing marks, so a receiver importing it
// later inherits exactly the state that is still alive then.
func (lb *LoadBalancer) ExportFlows() []flowtable.FlowBinding {
	return lb.flows.Snapshot(lb.port.Now())
}

// ImportFlows merges an exported snapshot into this replica's flow
// table — the receiving half of a warm handoff. Bindings that expired
// since the export are dropped, a newer local entry is never
// overwritten, and the table's capacity bound still holds. Returns the
// number of bindings applied.
func (lb *LoadBalancer) ImportFlows(bindings []flowtable.FlowBinding) int {
	return lb.flows.Restore(lb.port.Now(), bindings)
}

// SweepNow immediately collects expired flow entries and returns how many
// were removed.
func (lb *LoadBalancer) SweepNow() int {
	lb.lastSweep = lb.port.Now()
	return lb.flows.Sweep(lb.lastSweep)
}

// maybeSweep runs an opportunistic sweep at most once per SweepInterval.
func (lb *LoadBalancer) maybeSweep() {
	if lb.cfg.SweepInterval < 0 {
		return
	}
	if now := lb.port.Now(); now-lb.lastSweep >= lb.cfg.SweepInterval {
		lb.lastSweep = now
		lb.flows.Sweep(now)
	}
}

// Handle implements netsim.Node.
func (lb *LoadBalancer) Handle(pkt *packet.Packet) {
	lb.maybeSweep()
	// SYN-ACK (or any packet) SR-routed through the LB itself: the
	// flow-learning path.
	if pkt.IP.Dst == lb.cfg.Addr {
		if pkt.SRH != nil {
			lb.handleReturn(pkt)
			return
		}
		lb.Counts.Inc("to_lb_no_srh")
		return
	}
	// Client-side traffic addressed to a VIP: one map lookup, then
	// everything the packet needs is in the dense entry.
	id, ok := lb.vipIndex[pkt.IP.Dst]
	if !ok {
		lb.Counts.Inc("unknown_vip")
		return
	}
	e := &lb.vips[id]
	if pkt.IsSYN() {
		e.syns++
		lb.handleSYN(pkt, e)
		return
	}
	lb.handleSteered(pkt, e)
}

// handleSYN starts Service Hunting: insert the candidate SRH and forward
// to the first candidate. A SYN whose flow is already bound (a client
// retransmission after a lost SYN-ACK) is steered to the bound server
// instead of starting a new hunt — "data packets belonging to the same
// flow are delivered to the same application instance" (§I) includes the
// SYN itself.
func (lb *LoadBalancer) handleSYN(pkt *packet.Packet, e *vipEntry) {
	lb.Counts.Inc("syn_rx")
	flow := pkt.Flow()
	if _, bound := lb.flows.Lookup(lb.port.Now(), flow); bound {
		lb.Counts.Inc("syn_rebound")
		lb.handleSteered(pkt, e)
		return
	}
	candidates := e.scheme.Pick(flow)
	if len(candidates) == 0 {
		lb.Counts.Inc("no_candidates")
		return
	}
	// The delivered packet is owned by this node (netsim.Node contract):
	// write the hunt list [candidates..., VIP] into its own SRH storage
	// and mutate it in place rather than cloning on the hot path.
	if _, err := pkt.SetSRH(candidates, pkt.IP.Dst); err != nil {
		panic(fmt.Sprintf("core: hunt SRH: %v", err))
	}
	pkt.IP.Dst = candidates[0] // the active segment
	lb.Counts.Inc("hunts_started")
	lb.port.Send(pkt)
}

// handleReturn processes a server→client packet SR-routed through the LB:
// learn the accepting server, strip the SRH, forward to the client.
func (lb *LoadBalancer) handleReturn(pkt *packet.Packet) {
	srh := pkt.SRH
	active, err := srh.Active()
	if err != nil || active != lb.cfg.Addr {
		lb.Counts.Inc("return_bad_segment")
		return
	}
	// The accepting server wrote itself one slot behind the LB in the
	// list (figure 1: SYN-ACK {a, S2, LB, c} — S2 at SL+1).
	server, err := srh.SegmentAtSL(srh.SegmentsLeft + 1)
	if err != nil {
		lb.Counts.Inc("return_no_server")
		return
	}
	client, err := srh.Advance()
	if err != nil {
		lb.Counts.Inc("return_exhausted")
		return
	}
	if pkt.IsSYNACK() {
		// Key the mapping by the CLIENT's view of the flow: the SYN-ACK
		// flow is (VIP→client); the client flow is its reverse.
		clientFlow := pkt.Flow().Reverse()
		lb.flows.Insert(lb.port.Now(), clientFlow, server)
		lb.Counts.Inc("flows_learned")
		// A stateful scheme tracks its own placements (the in-flight
		// delta between feedback reports); the flow's VIP is the client
		// flow's destination.
		if id, ok := lb.vipIndex[clientFlow.Dst]; ok {
			if st := lb.vips[id].stateful; st != nil {
				st.Observe(server, +1)
			}
		}
	}
	// Strip the SRH: the client is SR-oblivious.
	pkt.SRH = nil
	pkt.IP.Dst = client
	lb.Counts.Inc("returns_relayed")
	lb.port.Send(pkt)
}

// handleSteered forwards mid-flow client packets to the accepting
// server. When the VIP's scheme can re-steer (flowlet-grained
// balancing), the lookup also reads the flow's idle gap and offers
// eligible packets to the scheme at flowlet boundaries; a move rebinds
// the flowtable entry in place, so the packet and every successor
// steer to the new server.
func (lb *LoadBalancer) handleSteered(pkt *packet.Packet, e *vipEntry) {
	now := lb.port.Now()
	flow := pkt.Flow()
	isRST := pkt.TCP.Flags.Has(tcpseg.FlagRST)
	var server netip.Addr
	var ok bool
	if e.resteer != nil {
		var idle time.Duration
		server, idle, ok = lb.flows.LookupIdle(now, flow)
		if ok && selection.ResteerEligible(pkt.IsSYN(), isRST) {
			if next, move := e.resteer.Resteer(now, flow, idle, server); move && next != server {
				lb.flows.Rebind(now, flow, next)
				if st := e.stateful; st != nil {
					st.Observe(server, -1)
					st.Observe(next, +1)
				}
				server = next
				lb.Counts.Inc("flowlet_resteer")
			}
		}
	} else {
		server, ok = lb.flows.Lookup(now, flow)
	}
	if !ok {
		if fb := e.fallback; fb != nil {
			if cands := fb.Pick(flow); len(cands) > 0 {
				server = cands[0]
				ok = true
				lb.Counts.Inc("miss_fallback")
			}
		}
		if !ok {
			lb.Counts.Inc("miss_dropped")
			return
		}
	}
	if pkt.TCP.Flags.Has(tcpseg.FlagFIN) || isRST {
		if lb.flows.MarkClosing(now, flow) {
			if st := e.stateful; st != nil {
				st.Observe(server, -1)
			}
		}
		lb.Counts.Inc("closing_observed")
	}
	path := [1]netip.Addr{server}
	if _, err := pkt.SetSRH(path[:], pkt.IP.Dst); err != nil {
		panic(fmt.Sprintf("core: steer SRH: %v", err))
	}
	pkt.IP.Dst = server
	lb.Counts.Inc("steered")
	lb.port.Send(pkt)
}

var _ netsim.Node = (*LoadBalancer)(nil)
