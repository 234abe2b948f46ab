// Package feedback implements the server-load telemetry plane: the
// out-of-band signaling channel that the paper's SR schemes deliberately
// avoid (§II uses only state local to each hop), but that the two natural
// competitors require — Charon-style load-aware weighted selection and
// host-driven flowlet re-steering both need each LB replica to know how
// busy every candidate server currently is.
//
// The plane is deliberately small: each vrouter/appserver owns a
// Publisher that samples its scoreboard (busy workers, open flows) on a
// configurable reporting interval and EWMA-smooths the utilization; the
// reports land in a per-LB View that keeps one report Slot per server —
// a load report is a property of the server, whichever services it
// hosts. Schemes read the view through per-VIP projections (VIPView):
// membership sets over the shared slots, so a VIP answers only for the
// servers joined to it, and the VIPs of one shared pool share a single
// membership Group. Projections track freshness: a report older than the
// TTL answers fresh=false, and every load-aware consumer degrades to its
// load-oblivious fallback on any stale candidate — a silent server
// (crashed, partitioned, or drained) must never keep attracting traffic
// on the strength of an old "I'm idle" report.
//
// Determinism: reports are published by DES timers and stamped with the
// simulator clock — the plane performs no wall-clock reads and no
// background goroutines, so feedback-enabled runs stay byte-identical
// across host worker counts. A publisher holding its Slot handle writes
// a report with no map lookup and no allocation (Slot.Publish; the
// testbed caches one handle per (server, replica)), and Ingest reuses
// slots and memberships after first contact, so neither path allocates
// in steady state (BenchmarkFeedbackIngest and BenchmarkFeedbackPublish1k
// gate this).
package feedback

import (
	"net/netip"
	"time"
)

// Config tunes the telemetry plane. The zero value (Enabled=false)
// disables it entirely; enabled configs take defaults for zero fields.
type Config struct {
	// Enabled turns the plane on. When false the testbed publishes
	// nothing and schemes see a nil view (pure load-oblivious behavior,
	// zero hot-path cost).
	Enabled bool
	// Interval is the reporting period of every publisher (default
	// 100ms of virtual time).
	Interval time.Duration
	// TTL bounds how old a report may be and still count as fresh
	// (default 3×Interval): one missed report is jitter, three is an
	// outage.
	TTL time.Duration
	// Alpha is the EWMA smoothing factor applied to instantaneous
	// worker utilization, 0 < Alpha ≤ 1 (default 0.3). Higher values
	// track bursts faster; lower values damp sampling noise.
	Alpha float64
	// Horizon, when positive, stops the testbed's publishing tickers
	// after this much virtual time — the same bounded-tick idiom as
	// testbed.SampleLoads, so an otherwise-idle simulation terminates.
	// Experiments set it to their run horizon.
	Horizon time.Duration
}

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.TTL <= 0 {
		c.TTL = 3 * c.Interval
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	return c
}

// Report is one server's load sample as published to the LBs.
type Report struct {
	// Busy and Workers are the scoreboard's instantaneous occupancy.
	Busy, Workers int
	// Flows is the server's open-connection count at sampling time.
	Flows int
	// Util is the EWMA-smoothed worker utilization (Busy/Workers run
	// through the publisher's filter) — the load score consumers rank
	// by.
	Util float64
	// At is the virtual time the sample was taken.
	At time.Duration
}

// Publisher is one server's report source: it owns the EWMA state so
// that utilization smoothing happens where the samples are taken, and
// every subscribed view receives identical numbers.
type Publisher struct {
	alpha  float64
	util   float64
	primed bool
}

// NewPublisher creates a publisher with the given smoothing factor
// (zero or out-of-range values take the Config default).
func NewPublisher(alpha float64) *Publisher {
	if alpha <= 0 || alpha > 1 {
		alpha = Config{}.WithDefaults().Alpha
	}
	return &Publisher{alpha: alpha}
}

// Sample folds the instantaneous scoreboard reading into the EWMA and
// returns the report to publish. The first sample primes the filter
// directly (no warm-up bias toward zero).
func (p *Publisher) Sample(now time.Duration, busy, workers, flows int) Report {
	inst := 0.0
	if workers > 0 {
		inst = float64(busy) / float64(workers)
	}
	if !p.primed {
		p.util = inst
		p.primed = true
	} else {
		p.util = p.alpha*inst + (1-p.alpha)*p.util
	}
	return Report{Busy: busy, Workers: workers, Flows: flows, Util: p.util, At: now}
}

// Slot holds the latest report of one server in one view. Every VIP
// projection the server has joined reads the same slot, so a report is
// written once however many services the server hosts. Handles are
// stable for the view's lifetime (Reset clears them in place).
type Slot struct {
	view *View
	rpt  Report
	has  bool
}

// Publish records rpt as the server's latest report, visible at once
// through every projection the server has joined. It performs no map
// lookup and allocates nothing — the publishing tick's hot path.
func (s *Slot) Publish(rpt Report) {
	s.rpt = rpt
	s.has = true
	s.view.stats.Ingests++
}

// Group is a membership set: the servers a set of VIP projections may
// answer for, each mapped to its shared slot. A VIP gets a group of its
// own on first use (For); Share binds the VIPs of one server pool to a
// single group, so the pool's membership is stored once, not per VIP.
type Group struct {
	view    *View
	members map[netip.Addr]*Slot
}

// Join makes server a member of the group and returns the server's slot
// in the view. Joining twice is a no-op returning the same slot.
func (g *Group) Join(server netip.Addr) *Slot {
	s := g.members[server]
	if s == nil {
		s = g.view.slots[server]
		if s == nil {
			s = &Slot{view: g.view}
			g.view.slots[server] = s
		}
		g.members[server] = s
	}
	return s
}

// Stats counts view activity.
type Stats struct {
	// Ingests is the total number of reports accepted (one per
	// Slot.Publish or Ingest).
	Ingests uint64
}

// View is one LB replica's subscription to the telemetry plane: the
// latest report per server, projected per VIP onto the servers joined to
// it, with freshness judged against the caller-provided clock. Not safe
// for concurrent use (the simulator is single-threaded).
type View struct {
	cfg   Config
	now   func() time.Duration
	slots map[netip.Addr]*Slot
	vips  map[netip.Addr]*VIPView
	stats Stats
}

// NewView creates a view. now must read the same clock that stamps the
// reports (the DES simulator's Now).
func NewView(cfg Config, now func() time.Duration) *View {
	return &View{
		cfg:   cfg.WithDefaults(),
		now:   now,
		slots: make(map[netip.Addr]*Slot),
		vips:  make(map[netip.Addr]*VIPView),
	}
}

// Config returns the view's resolved (defaulted) configuration.
func (v *View) Config() Config { return v.cfg }

// Stats returns a copy of the view counters.
func (v *View) Stats() Stats { return v.stats }

// For returns the per-VIP projection, creating it (with a membership
// group of its own) on first use. The pointer is stable for the view's
// lifetime, so schemes capture it once at construction.
func (v *View) For(vip netip.Addr) *VIPView {
	vv := v.vips[vip]
	if vv == nil {
		vv = &VIPView{view: v, group: v.newGroup()}
		v.vips[vip] = vv
	}
	return vv
}

// Share binds the projections of vips to one new membership group — the
// VIPs of one shared server pool: a server joined through any of them is
// joined to all of them. Servers already joined to a listed projection
// carry over into the group, and For pointers stay valid. A control-plane
// call: O(len(vips)), made once per pool when the cluster is built.
func (v *View) Share(vips []netip.Addr) *Group {
	g := v.newGroup()
	for _, vip := range vips {
		vv := v.vips[vip]
		if vv == nil {
			v.vips[vip] = &VIPView{view: v, group: g}
			continue
		}
		for server, s := range vv.group.members {
			g.members[server] = s
		}
		vv.group = g
	}
	return g
}

func (v *View) newGroup() *Group {
	return &Group{view: v, members: make(map[netip.Addr]*Slot)}
}

// Ingest records a report for server and joins it to vip's projection
// first if needed. The report is the server's: every projection the
// server has joined sees it. Steady state (server already joined)
// allocates nothing.
func (v *View) Ingest(vip, server netip.Addr, rpt Report) {
	v.For(vip).group.Join(server).Publish(rpt)
}

// Reset forgets every report the view has accumulated — a replica
// restarting after a failure comes back with no telemetry, exactly as a
// real process would, and every server answers stale until it reports
// again. Slots are cleared in place and memberships kept: the VIPView
// pointers handed out by For and the Slot handles held by publishers
// stay valid, so schemes built before the reset keep working (and
// correctly see nothing but staleness until the next publish tick).
// Stats are preserved — they count the view's lifetime, not the current
// contents.
func (v *View) Reset() {
	for _, s := range v.slots {
		s.has = false
	}
}

// VIPView is the per-VIP projection schemes consume; it implements
// selection.LoadView.
type VIPView struct {
	view  *View
	group *Group
}

// ServerLoad returns the server's last reported load score and whether
// that report is still fresh (within TTL of now). A server that never
// reported, or never joined this VIP, is (0, false); consumers must
// treat any stale candidate as a signal to fall back to load-oblivious
// behavior.
func (vv *VIPView) ServerLoad(server netip.Addr) (load float64, fresh bool) {
	s := vv.group.members[server]
	if s == nil || !s.has {
		return 0, false
	}
	return s.rpt.Util, vv.view.now()-s.rpt.At <= vv.view.cfg.TTL
}

// Report returns the last raw report for the server, if any —
// inspection and test hook; the scheme-facing surface is ServerLoad.
func (vv *VIPView) Report(server netip.Addr) (Report, bool) {
	s := vv.group.members[server]
	if s == nil || !s.has {
		return Report{}, false
	}
	return s.rpt, true
}
