package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"time"

	"srlb/internal/metrics"
	"srlb/internal/sketch"
)

// Known counter keys of each layer. Counters are read only through
// readCounters, which rejects any key outside these sets: a key the
// program increments but the benchmark misspells then fails the run
// instead of reading as 0.
var (
	netsimKeys = []string{"tx", "tx_bytes", "rx", "lost", "unroutable", "rx_parse_error"}
	coreKeys   = []string{
		"to_lb_no_srh", "unknown_vip", "syn_rx", "syn_rebound", "no_candidates",
		"hunts_started", "return_bad_segment", "return_no_server", "return_exhausted",
		"flows_learned", "returns_relayed", "flowlet_resteer", "miss_fallback",
		"miss_dropped", "closing_observed", "steered",
	}
	vrouterKeys = []string{
		"down_rx", "hunt_offers", "hunt_accepts", "hunt_refusals", "forced_accepts",
		"dup_syn", "rst_overflow", "syn_dropped", "synack_tx", "not_local", "no_conn",
		"late_rx", "requests_rx", "fin_rx", "responses_tx", "srh_exhausted",
		"hoplimit_exceeded", "forwarded",
	}
	clientKeys = []string{
		"queries_launched", "syn_timeout", "syn_retransmits", "stray_rx", "refused",
		"synack_rx", "responses_rx", "close_acks_tx", "other_rx",
	}
)

// counters is a validated snapshot of one layer's metrics.Counter (or
// the sum over every node of that layer).
type counters struct {
	layer string
	known []string
	vals  map[string]uint64
}

// readCounters sums the given Counters, keyed by Counter.Keys(). A key
// outside known is an error.
func readCounters(layer string, known []string, cs ...*metrics.Counter) (counters, error) {
	out := counters{layer: layer, known: known, vals: make(map[string]uint64)}
	for _, c := range cs {
		for _, k := range c.Keys() {
			if !slices.Contains(known, k) {
				return out, fmt.Errorf("%s: unknown counter key %q", layer, k)
			}
			out.vals[k] += c.Get(k)
		}
	}
	return out, nil
}

// get returns the value of a known key; a key never incremented reads 0.
// Asking for a key outside the known set is a bug in the benchmark.
func (c counters) get(k string) uint64 {
	if !slices.Contains(c.known, k) {
		panic(fmt.Sprintf("perfbench: %s has no counter %q", c.layer, k))
	}
	return c.vals[k]
}

// require reports an error unless every key was incremented at least
// once (present in Counter.Keys()).
func (c counters) require(keys ...string) error {
	for _, k := range keys {
		if _, ok := c.vals[k]; !ok {
			return fmt.Errorf("%s: counter %q missing", c.layer, k)
		}
	}
	return nil
}

// outcome is the model output of one repetition and the result of its
// output checks.
type outcome struct {
	offered, ok, refused, unfinished uint64
	// p50 and p999 are exact quantiles of the completed queries'
	// response times; samples is their count.
	p50, p999 time.Duration
	samples   int
	digest    uint64
	// errs lists every failed output check.
	errs []error
	// Layer counters, reused by the traced run.
	net, lb, vr, gen counters
}

func (o *outcome) failf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Errorf(format, args...))
}

// failFrac is the simulated failure share: refused plus unfinished over
// offered.
func (o *outcome) failFrac() float64 {
	return float64(o.refused+o.unfinished) / float64(o.offered)
}

// check runs every output check on a finished cluster and computes its
// digest. It sorts c.rts.
func (c *cluster) check() *outcome {
	o := &outcome{}
	tb := c.tb
	var err error
	collect := func(e error) {
		if e != nil {
			o.errs = append(o.errs, e)
		}
	}
	o.net, err = readCounters("netsim", netsimKeys, tb.Net.Counts)
	collect(err)
	o.lb, err = readCounters("core", coreKeys, tb.LB.Counts)
	collect(err)
	vrs := make([]*metrics.Counter, len(tb.Routers))
	for i, r := range tb.Routers {
		vrs[i] = r.Counts
	}
	o.vr, err = readCounters("vrouter", vrouterKeys, vrs...)
	collect(err)
	o.gen, err = readCounters("testbed", clientKeys, tb.Gen.Counts)
	collect(err)
	collect(o.net.require("tx", "tx_bytes", "rx"))
	collect(o.vr.require("hunt_offers", "hunt_accepts"))
	collect(o.lb.require("hunts_started"))
	collect(o.gen.require("queries_launched"))

	if n := tb.Sim.Pending(); n != 0 {
		o.failf("des: %d events pending after drain", n)
	}
	if tx, sum := o.net.get("tx"), o.net.get("rx")+o.net.get("lost")+o.net.get("unroutable")+o.net.get("rx_parse_error"); tx != sum {
		o.failf("netsim: tx %d != rx+lost+unroutable+rx_parse_error %d", tx, sum)
	}
	if off, sum := o.vr.get("hunt_offers"), o.vr.get("hunt_accepts")+o.vr.get("hunt_refusals"); off != sum {
		o.failf("vrouter: hunt_offers %d != hunt_accepts+hunt_refusals %d", off, sum)
	}
	if n := o.gen.get("queries_launched"); n != uint64(len(c.in.at)) {
		o.failf("testbed: launched %d of %d queries", n, len(c.in.at))
	}

	total := c.sink.Total()
	o.offered, o.ok = total.Counters.Offered, total.Counters.OK
	o.refused, o.unfinished = total.Counters.Refused, total.Counters.Unfinished
	if o.offered != uint64(len(c.in.at)) {
		o.failf("sink: offered %d, scheduled %d", o.offered, len(c.in.at))
	}
	for _, v := range append(c.sink.VIPs(), total) {
		k := v.Counters
		if k.Offered != k.OK+k.Refused+k.Unfinished {
			o.failf("sink %v: offered %d != ok %d + refused %d + unfinished %d", v.VIP, k.Offered, k.OK, k.Refused, k.Unfinished)
		}
		if uint64(v.RT.Count()) != k.OK {
			o.failf("sink %v: RT sketch count %d != ok %d", v.VIP, v.RT.Count(), k.OK)
		}
	}
	if len(c.rts) != int(o.ok) {
		o.failf("recorded %d response times for %d completed queries", len(c.rts), o.ok)
	}

	o.digest = c.digest(o)
	o.samples = len(c.rts)
	slices.Sort(c.rts)
	o.p50, o.p999 = quantile(c.rts, 0.5), quantile(c.rts, 0.999)
	eps := sketch.MaxRelativeError(total.RT.Precision())
	for _, q := range []struct {
		p     float64
		exact time.Duration
	}{{0.5, o.p50}, {0.999, o.p999}} {
		got := total.RT.Quantile(q.p)
		if math.Abs(float64(got-q.exact)) > eps*float64(q.exact)+1 {
			o.failf("sketch p%v = %v, exact %v: beyond the %.4f relative bound", q.p*100, got, q.exact, eps)
		}
	}
	return o
}

// digest hashes the model outputs — per-VIP outcome counts, every
// response time in completion order, and every layer counter (where the
// packets went) — but nothing about how the simulator got there, such as
// its event count, so a change that only speeds up the simulator leaves
// it unchanged.
func (c *cluster) digest(o *outcome) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, v := range c.sink.VIPs() {
		k := v.Counters
		put(k.Offered)
		put(k.OK)
		put(k.Refused)
		put(k.Unfinished)
	}
	for _, rt := range c.rts {
		put(uint64(rt))
	}
	for _, cs := range []counters{o.net, o.lb, o.vr, o.gen} {
		for _, k := range slices.Sorted(maps.Keys(cs.vals)) {
			fmt.Fprintf(h, "%s.%s=", cs.layer, k)
			put(cs.vals[k])
		}
	}
	return h.Sum64()
}

// quantile interpolates linearly between the adjacent ranks of p·(n−1)
// in sorted — the convention sketch.Histogram.Quantile approximates.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}
