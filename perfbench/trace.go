package main

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"srlb/internal/flowtable"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/sketch"
	"srlb/internal/testbed"
)

const (
	// sampleEvery: one DES step in sampleEvery is timed. A timed step
	// costs several clock reads (≈100 ns each on a VM), so timing every
	// step would double the run.
	sampleEvery = 16
	// maxSpans bounds the spans kept in memory and written out; the
	// aggregates cover every sampled step regardless.
	maxSpans = 1 << 16
	// maxCaptured bounds the delivered packets cloned for the isolated
	// codec timings.
	maxCaptured = 4096
	// backlogEvery: server backlogs are scanned once per this many steps.
	backlogEvery = 256
)

// Nodes whose Handle the traced run times through a shim.
const (
	nodeCore = iota
	nodeVrouter
	nodeClient
	nodeKinds
)

var nodeNames = [nodeKinds]string{"core.handle", "vrouter.handle", "testbed.client"}

// What a DES step turned out to be.
const (
	stepDelivery = iota // a netsim delivery (the tap fired)
	stepLaunch          // the benchmark's launch closure
	stepTick            // the benchmark's feedback tick
	stepTimer           // anything else: PS completions, linger expiries
	stepKinds
)

var stepNames = [stepKinds]string{"des.delivery", "des.launch", "des.tick", "des.timer"}

// span is one recorded interval, in ns since the tracer's base time.
type span struct {
	step       int
	name       string
	start, end int64
	parent     int // index into tracer.spans, -1 for a step
}

// tracer times the layers of one repetition from outside: shims around
// every node's Handle, a netsim tap, wrappers around the benchmark's own
// closures, and a Step-driven event loop.
type tracer struct {
	base time.Time
	// clock is the ns an interval gains from the two reads bounding it,
	// subtracted from every interval.
	clock float64
	reads int // clock reads made

	sampling bool
	// Marks of the sampled step in progress.
	kind, node                      int
	tap, hStart, hEnd, cStart, cEnd int64

	// Sums over sampled steps, clock-corrected, in ns.
	stepN   [stepKinds]int
	closure [stepKinds]float64 // launch and tick closures
	desSelf float64            // launch and tick steps minus their closure
	netsim  float64            // delivery steps minus the handle
	timer   float64            // whole timer steps
	handleN [nodeKinds]int
	handle  [nodeKinds]float64

	// Counts over every step.
	handled       [nodeKinds]uint64
	delivered     uint64
	srhPkts       uint64
	pendingPeak   int
	livePeak      int
	backlogPeak   int
	pendingSum    float64
	liveSum       float64
	observed      int
	captureStride uint64
	captured      []*packet.Packet

	spans []span
}

func newTracer(clock clockCost, captureStride uint64) *tracer {
	return &tracer{
		base:          time.Now(),
		clock:         clock.interval,
		captureStride: max(captureStride, 1),
		spans:         make([]span, 0, maxSpans),
	}
}

func (tr *tracer) now() int64 {
	tr.reads++
	return int64(time.Since(tr.base))
}

// shim times one node's Handle on sampled steps.
type shim struct {
	tr   *tracer
	kind int
	node netsim.Node
}

// Handle implements netsim.Node.
func (s *shim) Handle(pkt *packet.Packet) {
	tr := s.tr
	tr.handled[s.kind]++
	if !tr.sampling {
		s.node.Handle(pkt)
		return
	}
	tr.node = s.kind
	tr.hStart = tr.now()
	s.node.Handle(pkt)
	tr.hEnd = tr.now()
}

// onTap runs after netsim has parsed a delivery and before the node's
// Handle: its timestamp ends the netsim part of the step.
func (tr *tracer) onTap(_ time.Duration, _ netip.Addr, pkt *packet.Packet) {
	tr.delivered++
	if pkt.SRH != nil {
		tr.srhPkts++
	}
	if tr.sampling {
		tr.kind = stepDelivery
		tr.tap = tr.now()
		return
	}
	if tr.delivered%tr.captureStride == 0 && len(tr.captured) < maxCaptured {
		tr.captured = append(tr.captured, pkt.Clone())
	}
}

// wrap returns fn timed as a step of the given kind.
func (tr *tracer) wrap(kind int, fn func()) func() {
	return func() {
		if !tr.sampling {
			fn()
			return
		}
		tr.kind = kind
		tr.cStart = tr.now()
		fn()
		tr.cEnd = tr.now()
	}
}

// instrument re-attaches every LB, router and client address of the
// cluster through a timing shim, adds the tap and wraps the benchmark's
// closures. Call it before c.start.
func (tr *tracer) instrument(c *cluster) error {
	tb := c.tb
	reattach := func(node, via netsim.Node, addr netip.Addr) error {
		if !tb.Net.Detach(node, addr) {
			return fmt.Errorf("trace: %v is not attached to the expected node", addr)
		}
		tb.Net.Attach(via, addr)
		return nil
	}
	lb := &shim{tr: tr, kind: nodeCore, node: tb.LB}
	if err := reattach(tb.LB, lb, testbed.LBAddr); err != nil {
		return err
	}
	for v := 0; v < tb.VIPCount(); v++ {
		if err := reattach(tb.LB, lb, tb.VIPAddrOf(v)); err != nil {
			return err
		}
	}
	for _, r := range tb.Routers {
		if err := reattach(r, &shim{tr: tr, kind: nodeVrouter, node: r}, r.Addr()); err != nil {
			return err
		}
	}
	gen := &shim{tr: tr, kind: nodeClient, node: tb.Gen}
	for j := 0; j < clients; j++ {
		if err := reattach(tb.Gen, gen, testbed.ClientAddr(j)); err != nil {
			return err
		}
	}
	tb.Net.AddTap(tr.onTap)
	c.launch = tr.wrap(stepLaunch, c.launch)
	c.tick = tr.wrap(stepTick, c.tick)
	return nil
}

// run drives the simulation one Step at a time, timing one step in
// sampleEvery.
func (tr *tracer) run(c *cluster) {
	sim := c.tb.Sim
	for n := 0; ; n++ {
		tr.sampling = n%sampleEvery == 0
		if !tr.sampling {
			if !sim.Step() {
				return
			}
		} else {
			tr.kind, tr.node = stepTimer, -1
			t0 := tr.now()
			more := sim.Step()
			t1 := tr.now()
			if !more {
				return
			}
			tr.account(n, t0, t1)
		}
		tr.observe(c, n)
	}
}

// account attributes one sampled step. Every interval between two clock
// reads contains about one read's cost, which is subtracted.
func (tr *tracer) account(n int, t0, t1 int64) {
	c := tr.clock
	tr.stepN[tr.kind]++
	root := tr.record(n, stepNames[tr.kind], t0, t1, -1)
	switch tr.kind {
	case stepDelivery:
		// Reads: t0, tap, hStart, hEnd, t1. The DES pop before the tap is
		// removed later at the rate measured on closure steps.
		h := float64(tr.hEnd-tr.hStart) - c
		tr.handleN[tr.node]++
		tr.handle[tr.node] += h
		tr.netsim += float64(t1-t0) - float64(tr.hEnd-tr.hStart) - 3*c
		tr.record(n, "netsim.parse", t0, tr.tap, root)
		tr.record(n, nodeNames[tr.node], tr.hStart, tr.hEnd, root)
		tr.record(n, "netsim.release", tr.hEnd, t1, root)
	case stepLaunch, stepTick:
		// Reads: t0, cStart, cEnd, t1.
		fn := float64(tr.cEnd-tr.cStart) - c
		tr.closure[tr.kind] += fn
		tr.desSelf += float64(t1-t0) - float64(tr.cEnd-tr.cStart) - 2*c
		name := "testbed.launch"
		if tr.kind == stepTick {
			name = "feedback.tick"
		}
		tr.record(n, name, tr.cStart, tr.cEnd, root)
	default:
		tr.timer += float64(t1-t0) - c
	}
}

func (tr *tracer) record(step int, name string, start, end int64, parent int) int {
	if len(tr.spans) == cap(tr.spans) {
		return -1
	}
	tr.spans = append(tr.spans, span{step: step, name: name, start: start, end: end, parent: parent})
	return len(tr.spans) - 1
}

// observe tracks queue depths after a step.
func (tr *tracer) observe(c *cluster, n int) {
	pending, live := c.tb.Sim.Pending(), c.tb.LB.FlowCount()
	tr.pendingPeak = max(tr.pendingPeak, pending)
	tr.livePeak = max(tr.livePeak, live)
	if n%backlogEvery == 0 {
		tr.observed++
		tr.pendingSum += float64(pending)
		tr.liveSum += float64(live)
		for _, s := range c.tb.Servers {
			tr.backlogPeak = max(tr.backlogPeak, s.QueueLen())
		}
	}
}

// desSelfNs is the DES's own cost per step, measured on steps whose only
// child is one of the benchmark's closures.
func (tr *tracer) desSelfNs() float64 {
	return tr.desSelf / float64(max(tr.stepN[stepLaunch]+tr.stepN[stepTick], 1))
}

// writeSpans writes one record per span: step, span id, parent id
// (-1 for a step), name, start and end in ns since the run began.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "step\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range tr.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.step, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRep is one traced repetition.
type tracedRep struct {
	tr *tracer
	// build is testbed construction; run is the instrumented event loop
	// with the cost of the tracer's clock reads removed (both wall time);
	// cpu is the process CPU time of both, clock reads included.
	build, run, cpu time.Duration
	out             *outcome
	sim             simStats
	// rts is the completion-order response times (the output check
	// sorts the cluster's own copy).
	rts []time.Duration
}

// simStats are end-of-run facts read from the traced cluster.
type simStats struct {
	events      uint64
	simTime     time.Duration
	flows       flowtable.Stats
	inService   float64 // mean busy workers per server
	offers      uint64
	completions uint64
	ingests     uint64
	sketchBytes float64 // per VIP
}

func traceRep(w workload, in *inputs, rts []time.Duration, clock clockCost, stride uint64) (*tracedRep, *cluster, error) {
	runtime.GC()
	tr := newTracer(clock, stride)
	cpu0 := cpuTime()
	t0 := time.Now()
	c := w.build(in, rts)
	build := time.Since(t0)
	if err := tr.instrument(c); err != nil {
		return nil, nil, err
	}
	c.start()
	t1 := time.Now()
	tr.run(c)
	c.tb.Gen.DrainPending()
	run := time.Since(t1)
	r := &tracedRep{
		tr:    tr,
		build: build,
		run:   run - time.Duration(float64(tr.reads)*clock.call),
		cpu:   cpuTime() - cpu0,
		rts:   slices.Clone(c.rts),
		sim:   readSimStats(c.tb, c.sink),
	}
	r.out = c.check()
	return r, c, nil
}

func readSimStats(tb *testbed.Testbed, sink *testbed.SketchSink) simStats {
	st := simStats{
		events:  tb.Sim.Processed(),
		simTime: tb.Sim.Now(),
		flows:   tb.LB.FlowStats(),
	}
	var busy time.Duration
	for _, s := range tb.Servers {
		ss := s.Stats()
		busy += ss.BusyTime
		st.offers += ss.Admitted + ss.Rejected + ss.Dropped
		st.completions += ss.Completed
	}
	st.inService = busy.Seconds() / st.simTime.Seconds() / float64(len(tb.Servers))
	if tb.Feedback != nil {
		st.ingests = tb.Feedback.Stats().Ingests
	}
	fixed := float64(unsafe.Sizeof(testbed.VIPSketch{}) + unsafe.Sizeof(sketch.Histogram{}))
	for _, v := range sink.VIPs() {
		st.sketchBytes += fixed + 8*float64(v.RT.Buckets())
	}
	st.sketchBytes /= float64(len(sink.VIPs()))
	return st
}
