package main

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"time"

	"srlb/internal/appserver"
	"srlb/internal/des"
	"srlb/internal/experiments"
	"srlb/internal/feedback"
	"srlb/internal/flowtable"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
	"srlb/internal/selection"
	"srlb/internal/sketch"
	"srlb/internal/srv6"
	"srlb/internal/testbed"
)

// isoRounds is how many times each isolated loop is timed; the median
// round is reported.
const isoRounds = 5

// isolated holds per-call costs of single layers, timed outside the
// simulation on inputs captured from the traced repetition.
type isolated struct {
	// clock is the cost of one clock read, removed from timings that
	// read the clock around every call.
	clock float64

	marshalNs, parseNs, allocsPerHop float64
	srhRoundtripNs, allocsPerSRH     float64
	lookupNs, insertNs, sweepNs      float64 // sweep: per entry scanned
	offerNs, completeNs              float64
	addNs, ingestNs, pickNs          float64
	kernelNs                         float64 // one DES schedule + step
}

// nsPerOp times f over n operations isoRounds times, with set-up run
// untimed before each round, and returns the median ns per operation.
func nsPerOp(n int, setup func(), f func(i int)) float64 {
	per := make([]float64, isoRounds)
	for r := range per {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return medianOf(per)
}

// allocsPerOp counts heap allocations per operation over one pass.
func allocsPerOp(n int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func isolate(w workload, in *inputs, r *tracedRep, clockNs float64) (*isolated, error) {
	iso := &isolated{clock: clockNs}
	if err := iso.codec(r.tr.captured); err != nil {
		return nil, err
	}
	if err := iso.srh(r.tr.captured); err != nil {
		return nil, err
	}
	iso.flowTable(w, max(r.tr.livePeak, 1))
	iso.appServer(in, r.sim.inService)
	iso.sketchAdd(r.rts)
	iso.feedbackIngest(w)
	iso.selectionPick(w, in.seed, r.tr.captured)
	iso.desKernel(in.seed, r)
	return iso, nil
}

// codec times the wire codec on the captured packets, with the parse
// settings the run used, after checking each round-trips exactly.
func (iso *isolated) codec(pkts []*packet.Packet) error {
	if len(pkts) == 0 {
		return fmt.Errorf("isolate: no packets captured")
	}
	wires := make([][]byte, len(pkts))
	var back packet.Packet
	for i, p := range pkts {
		b, err := p.Marshal(nil)
		if err != nil {
			return fmt.Errorf("isolate: marshal captured packet %d: %w", i, err)
		}
		if err := packet.ParseInto(&back, b, true); err != nil {
			return fmt.Errorf("isolate: parse captured packet %d: %w", i, err)
		}
		again, err := back.Marshal(nil)
		if err != nil || !bytes.Equal(again, b) {
			return fmt.Errorf("isolate: captured packet %d does not round-trip: %v", i, err)
		}
		wires[i] = b
	}
	var verify bool // netsim.Config.VerifyChecksums as the workloads run
	n := len(pkts)
	buf := make([]byte, 0, 256)
	iso.marshalNs = nsPerOp(n, nil, func(i int) { buf, _ = pkts[i].Marshal(buf[:0]) })
	iso.parseNs = nsPerOp(n, nil, func(i int) { _ = packet.ParseInto(&back, wires[i], verify) })
	iso.allocsPerHop = allocsPerOp(n, func(i int) {
		buf, _ = pkts[i].Marshal(buf[:0])
		_ = packet.ParseInto(&back, buf, verify)
	})
	return nil
}

// srh times building, marshaling and parsing the segment lists seen on
// the wire, as the LB and routers build one per forwarded hop.
func (iso *isolated) srh(pkts []*packet.Packet) error {
	var paths [][]netip.Addr
	var sls []uint8
	for _, p := range pkts {
		if p.SRH != nil {
			paths = append(paths, p.SRH.Segments)
			sls = append(sls, p.SRH.SegmentsLeft)
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("isolate: no SRH packets captured")
	}
	buf := make([]byte, 0, 128)
	var err error
	roundtrip := func(i int) {
		var h *srv6.SRH
		if h, err = srv6.New(ipv6.ProtoTCP, paths[i]...); err != nil {
			return
		}
		h.SegmentsLeft = sls[i]
		if buf, err = h.Marshal(buf[:0]); err != nil {
			return
		}
		var back *srv6.SRH
		if back, _, err = srv6.Parse(buf); err == nil && back.SegmentsLeft != sls[i] {
			err = fmt.Errorf("segments left %d, want %d", back.SegmentsLeft, sls[i])
		}
	}
	for i := range paths {
		if roundtrip(i); err != nil {
			return fmt.Errorf("isolate: SRH %d: %w", i, err)
		}
	}
	n := len(paths)
	iso.srhRoundtripNs = nsPerOp(n, nil, roundtrip)
	iso.allocsPerSRH = allocsPerOp(n, roundtrip)
	return err
}

// flowKeys derives n client flows toward the workload's VIPs, distinct
// for n up to clients × 60000 (more than any run's queries).
func flowKeys(n, vips int) []packet.FlowKey {
	keys := make([]packet.FlowKey, n)
	for i := range keys {
		keys[i] = packet.FlowKey{
			Src:     testbed.ClientAddr(i % clients),
			Dst:     testbed.VIPAddr(i % vips),
			SrcPort: uint16(1024 + (i/clients)%60000),
			DstPort: 80,
		}
	}
	return keys
}

// flowTable times Insert, Lookup and Sweep on a table holding the run's
// peak number of live flows.
func (iso *isolated) flowTable(w workload, n int) {
	cfg := w.topology(0).Flows
	keys := flowKeys(n, w.vips())
	backend := testbed.ServerAddr(0)
	var t *flowtable.Table
	fresh := func() { t = flowtable.New(cfg) }
	iso.insertNs = nsPerOp(n, fresh, func(i int) { t.Insert(0, keys[i], backend) })
	iso.lookupNs = nsPerOp(n, nil, func(i int) { t.Lookup(time.Millisecond, keys[i]) })
	// Entries inserted over one idle TTL; the sweep half a TTL later
	// expires the older half and scans every entry.
	ttl := cfg.IdleTTL
	if ttl == 0 {
		ttl = 60 * time.Second // flowtable's default
	}
	staggered := func() {
		fresh()
		for i, k := range keys {
			t.Insert(time.Duration(i)*ttl/time.Duration(n), k, backend)
		}
	}
	iso.sweepNs = nsPerOp(1, staggered, func(int) { t.Sweep(ttl + ttl/2) }) / float64(n)
}

// appServer times Offer and the completion that follows on a server
// holding the run's mean in-service depth of long-running requests.
func (iso *isolated) appServer(in *inputs, inService float64) {
	cfg := appserver.Default()
	depth := min(max(int(math.Round(inService)), 0), cfg.Workers-1)
	demands := in.queries
	n := min(len(demands), 20000)
	var sim *des.Simulator
	var srv *appserver.Server
	done := false
	onDone := func() { done = true }
	setup := func() {
		sim = des.New()
		srv = appserver.New(sim, "isolated", cfg)
		for k := 0; k < depth; k++ {
			srv.Offer(1000*time.Hour, nil)
		}
	}
	// Alternate offers and completions, timing each separately.
	offers := make([]float64, isoRounds)
	completes := make([]float64, isoRounds)
	for round := range offers {
		setup()
		var offerNs, completeNs int64
		for i := 0; i < n; i++ {
			done = false
			t0 := time.Now()
			srv.Offer(demands[i].Demand, onDone)
			t1 := time.Now()
			for !done && sim.Step() {
			}
			offerNs += int64(t1.Sub(t0))
			completeNs += int64(time.Since(t1))
		}
		offers[round] = float64(offerNs)/float64(n) - iso.clock
		completes[round] = float64(completeNs)/float64(n) - iso.clock
	}
	iso.offerNs, iso.completeNs = medianOf(offers), medianOf(completes)
}

// sketchAdd times Histogram.Add on the run's response times in
// completion order.
func (iso *isolated) sketchAdd(rts []time.Duration) {
	if len(rts) == 0 {
		return
	}
	var h *sketch.Histogram
	iso.addNs = nsPerOp(len(rts), func() { h = sketch.New() }, func(i int) { h.Add(rts[i]) })
}

// feedbackIngest times View.Ingest over the workload's (VIP, server)
// report set in publishing order, once every slot exists.
func (iso *isolated) feedbackIngest(w workload) {
	type pair struct{ vip, server netip.Addr }
	var pairs []pair
	for p := 0; p < w.pools(); p++ {
		for i := 0; i < serversPerPool; i++ {
			for v := p; v < w.vips(); v += w.pools() {
				pairs = append(pairs, pair{testbed.VIPAddr(v), w.serverAddr(p, i)})
			}
		}
	}
	view := feedback.NewView(feedback.Config{Enabled: true}, func() time.Duration { return 0 })
	rpt := feedback.Report{Busy: 3, Workers: 32, Util: 0.1}
	ingest := func(i int) {
		p := pairs[i%len(pairs)]
		view.Ingest(p.vip, p.server, rpt)
	}
	// At least 1<<14 calls, so the two clock reads of a round are noise.
	iso.ingestNs = nsPerOp(max(len(pairs), 1<<14), func() {
		for i := range pairs {
			ingest(i)
		}
	}, ingest)
}

// selectionPick times the workload's candidate selection on the
// captured flows: random two-choice, or wleastload over fresh reports.
func (iso *isolated) selectionPick(w workload, seed uint64, captured []*packet.Packet) {
	servers := make([]netip.Addr, serversPerPool)
	for i := range servers {
		servers[i] = w.serverAddr(0, i)
	}
	rnd := rng.Split(seed, 99)
	var scheme selection.Scheme
	if w.fleet {
		view := feedback.NewView(feedback.Config{Enabled: true}, func() time.Duration { return 0 })
		vip := testbed.VIPAddr(0)
		for i, s := range servers {
			view.Ingest(vip, s, feedback.Report{Busy: i, Workers: 32, Util: float64(i) / 32})
		}
		scheme = experiments.WeightedLeastLoadPolicy().Scheme(servers, rnd, view.For(vip))
	} else {
		scheme = selection.NewRandom(servers, 2, rnd)
	}
	flows := make([]packet.FlowKey, len(captured))
	for i, p := range captured {
		flows[i] = p.Flow()
	}
	iso.pickNs = nsPerOp(len(flows), nil, func(i int) { scheme.Pick(flows[i]) })
}

// desKernel times one schedule plus one step of a no-op event on a
// calendar queue holding the run's mean pending-event depth, with event
// gaps spread over that depth like the run's.
func (iso *isolated) desKernel(seed uint64, r *tracedRep) {
	depth := max(int(r.tr.pendingSum/float64(max(r.tr.observed, 1))), 1)
	events := max(float64(r.sim.events), 1)
	meanGap := time.Duration(float64(r.sim.simTime) / events * float64(depth))
	gaps := rng.Split(seed, 98)
	delays := make([]time.Duration, 1<<16)
	for i := range delays {
		delays[i] = rng.Exp(gaps, meanGap)
	}
	noop := func() {}
	var sim *des.Simulator
	setup := func() {
		sim = des.New()
		for i := 0; i < depth; i++ {
			sim.Schedule(delays[i%len(delays)], noop)
		}
	}
	iso.kernelNs = nsPerOp(len(delays), setup, func(i int) {
		sim.ScheduleAfter(delays[i], noop)
		sim.Step()
	})
}
