package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// traceRun alternates untraced and traced repetitions for two thirds of
// the budget (at least two of each), times each layer in isolation on
// inputs captured from the first traced repetition, and reports the
// per-layer metrics.
func traceRun(w workload, in *inputs, budget time.Duration, clock clockCost, outDir string) (*result, error) {
	rts := make([]time.Duration, 0, len(in.at))
	var plain []*rep
	var traced []*tracedRep
	var iso *isolated
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < budget*2/3 {
		r, c := runRep(w, in, rts)
		plain = append(plain, r)
		// Clone about maxCaptured packets spread over the whole run.
		stride := r.out.net.get("rx")/maxCaptured + 1
		t, c, err := traceRep(w, in, c.rts, clock, stride)
		if err != nil {
			return nil, err
		}
		rts = c.rts
		traced = append(traced, t)
		if iso == nil {
			if iso, err = isolate(w, in, t, clock.interval); err != nil {
				return nil, err
			}
		}
	}

	// Tracing must not change the model: every traced digest equals the
	// untraced one.
	res, v := tally(w, plain)
	for i, t := range traced {
		if t.out.digest != v.digest {
			t.out.failf("traced repetition %d: digest %016x differs from untraced %016x", i, t.out.digest, v.digest)
		}
		res.Attempted += int(t.out.offered)
		if len(t.out.errs) > 0 {
			res.Correct = false
			res.Failed += int(t.out.offered)
			for _, e := range t.out.errs {
				fmt.Fprintf(os.Stderr, "%s traced repetition %d: check failed: %v\n", w.name, i, e)
			}
		}
	}

	first := traced[0]
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, in.seed))
	if err := first.tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	q := float64(len(in.at))
	untracedQPS := median(plain, func(r *rep) float64 { return q / r.cpu.Seconds() })
	tracedQPS := median(traced, func(t *tracedRep) float64 { return q / t.cpu.Seconds() })
	failShare := float64(res.Failed) / float64(res.Attempted)
	res.Metrics = layerMetrics(first, iso, v, q)
	set := func(name string, value float64, unit string) { res.Metrics[name] = metric{value, unit} }
	set("testbed.build_s", median(traced, func(t *tracedRep) float64 { return t.build.Seconds() }), "s")
	set("testbed.fail_frac", v.failFrac()+failShare, "fraction")
	set("bench.clock_ns", clock.call, "ns")
	set("bench.trace_overhead_frac", 1-tracedQPS/untracedQPS, "fraction")

	fmt.Printf("%-9s traced: %d untraced + %d traced reps, queries/rep=%d, digest=%016x, spans: %s\n",
		w.name, len(plain), len(traced), len(in.at), v.digest, path)
	fmt.Printf("  sim_qps untraced %.6g, traced %.6g; one step in %d timed\n", untracedQPS, tracedQPS, sampleEvery)
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[k]
		fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	return res, nil
}

// ratio returns a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of one traced repetition.
func layerMetrics(r *tracedRep, iso *isolated, o *outcome, q float64) map[string]metric {
	tr, st := r.tr, r.sim
	perStep := func(sum float64, n int) float64 { return ratio(sum, float64(n)) }
	desSelf := tr.desSelfNs()
	deliveries := tr.stepN[stepDelivery]
	tx, rx := float64(o.net.get("tx")), float64(o.net.get("rx"))
	hunts := float64(o.lb.get("hunts_started"))
	offers := float64(o.vr.get("hunt_offers"))
	// Every candidate a SYN visits: choice offers plus the last
	// candidate, which must accept.
	visits := offers + float64(o.vr.get("forced_accepts"))
	lookups := float64(st.flows.Hits + st.flows.Misses)
	// The LB sweeps its flow table at most once per simulated second,
	// scanning every live entry.
	scanned := st.simTime.Seconds() * tr.liveSum / float64(max(tr.observed, 1))

	// The ledger: isolated per-call costs times calls per query. A layer
	// it misses shows up as unattributed time.
	ledger := iso.kernelNs*float64(st.events)/q +
		iso.marshalNs*tx/q + iso.parseNs*rx/q +
		iso.lookupNs*lookups/q + iso.insertNs*float64(st.flows.Inserts)/q + iso.sweepNs*scanned/q +
		iso.offerNs*float64(st.offers)/q + max(iso.completeNs-iso.kernelNs, 0)*float64(st.completions)/q +
		iso.addNs*float64(o.ok)/q + iso.ingestNs*float64(st.ingests)/q + iso.pickNs*hunts/q
	tracedPerQuery := float64(r.run.Nanoseconds()) / q

	m := map[string]metric{}
	set := func(name string, value float64, unit string) { m[name] = metric{value, unit} }
	set("des.events_per_query", float64(st.events)/q, "count")
	set("des.self_ns_per_event", desSelf, "ns")
	set("des.pending_peak", float64(tr.pendingPeak), "count")
	set("des.kernel_ns", iso.kernelNs, "ns")
	set("netsim.pkts_per_query", rx/q, "count")
	set("netsim.bytes_per_pkt", ratio(float64(o.net.get("tx_bytes")), tx), "B")
	set("netsim.deliver_ns_per_pkt", perStep(tr.netsim, deliveries)-desSelf, "ns")
	set("netsim.drop_frac", ratio(float64(o.net.get("lost")+o.net.get("unroutable")+o.net.get("rx_parse_error")), tx), "fraction")
	set("packet.marshal_ns", iso.marshalNs, "ns")
	set("packet.parse_ns", iso.parseNs, "ns")
	set("packet.allocs_per_hop", iso.allocsPerHop, "count")
	set("srv6.srh_pkt_frac", ratio(float64(tr.srhPkts), float64(tr.delivered)), "fraction")
	set("srv6.roundtrip_ns", iso.srhRoundtripNs, "ns")
	set("srv6.allocs_per_srh", iso.allocsPerSRH, "count")
	set("core.handle_ns_per_pkt", perStep(tr.handle[nodeCore], tr.handleN[nodeCore]), "ns")
	set("core.pkts_per_query", float64(tr.handled[nodeCore])/q, "count")
	set("core.flow_hit_ratio", ratio(float64(st.flows.Hits), lookups), "fraction")
	set("flowtable.live_peak", float64(tr.livePeak), "count")
	set("flowtable.lookup_ns", iso.lookupNs, "ns")
	set("flowtable.insert_ns", iso.insertNs, "ns")
	set("flowtable.sweep_ns_per_entry", iso.sweepNs, "ns")
	set("flowtable.expiries_per_query", float64(st.flows.Expiries)/q, "count")
	set("vrouter.handle_ns_per_pkt", perStep(tr.handle[nodeVrouter], tr.handleN[nodeVrouter]), "ns")
	set("vrouter.offers_per_syn", ratio(visits, hunts), "count")
	set("vrouter.accept_ratio", ratio(float64(o.vr.get("hunt_accepts")), offers), "fraction")
	set("vrouter.rst_per_syn", ratio(float64(o.vr.get("rst_overflow")), hunts), "fraction")
	set("appserver.timer_ns_per_event", perStep(tr.timer, tr.stepN[stepTimer])-desSelf, "ns")
	set("appserver.in_service_mean", st.inService, "count")
	set("appserver.backlog_peak", float64(tr.backlogPeak), "count")
	set("appserver.offer_ns", iso.offerNs, "ns")
	set("appserver.complete_ns", iso.completeNs, "ns")
	set("feedback.ingests_per_query", float64(st.ingests)/q, "count")
	set("feedback.ingest_ns", iso.ingestNs, "ns")
	set("selection.pick_ns", iso.pickNs, "ns")
	set("testbed.client_ns_per_pkt", perStep(tr.handle[nodeClient], tr.handleN[nodeClient]), "ns")
	set("testbed.launch_ns", perStep(tr.closure[stepLaunch], tr.stepN[stepLaunch]), "ns")
	set("sketch.add_ns", iso.addNs, "ns")
	set("sketch.bytes_per_vip", st.sketchBytes, "B")
	set("bench.unattributed_frac", 1-ledger/tracedPerQuery, "fraction")
	return m
}
