package feedback

import (
	"net/netip"
	"testing"
	"time"
)

func addr(i int) netip.Addr {
	a := netip.MustParseAddr("2001:db8:beef::1")
	for j := 0; j < i; j++ {
		a = a.Next()
	}
	return a
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Enabled: true}.WithDefaults()
	if c.Interval != 100*time.Millisecond {
		t.Fatalf("Interval = %v", c.Interval)
	}
	if c.TTL != 3*c.Interval {
		t.Fatalf("TTL = %v, want 3x interval", c.TTL)
	}
	if c.Alpha != 0.3 {
		t.Fatalf("Alpha = %v", c.Alpha)
	}
	// Explicit values survive; TTL defaults off the explicit interval.
	c = Config{Interval: time.Second, Alpha: 0.9}.WithDefaults()
	if c.Interval != time.Second || c.TTL != 3*time.Second || c.Alpha != 0.9 {
		t.Fatalf("explicit config mangled: %+v", c)
	}
}

func TestPublisherEWMA(t *testing.T) {
	p := NewPublisher(0.5)
	// First sample primes the filter — no warm-up bias toward zero.
	r := p.Sample(0, 8, 8, 3)
	if r.Util != 1.0 {
		t.Fatalf("primed util = %v, want 1.0", r.Util)
	}
	if r.Busy != 8 || r.Workers != 8 || r.Flows != 3 || r.At != 0 {
		t.Fatalf("report fields mangled: %+v", r)
	}
	// Second sample folds: 0.5*0 + 0.5*1.0.
	r = p.Sample(time.Second, 0, 8, 0)
	if r.Util != 0.5 {
		t.Fatalf("EWMA util = %v, want 0.5", r.Util)
	}
	// Zero workers reads as zero instantaneous load, not a divide.
	r = p.Sample(2*time.Second, 0, 0, 0)
	if r.Util != 0.25 {
		t.Fatalf("util after zero-worker sample = %v, want 0.25", r.Util)
	}
}

func TestViewFreshnessTTL(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vip, s := addr(0), addr(1)
	vv := v.For(vip)

	// Never reported: unknown and stale.
	if load, fresh := vv.ServerLoad(s); load != 0 || fresh {
		t.Fatalf("unreported server = (%v, %v), want (0, false)", load, fresh)
	}

	v.Ingest(vip, s, Report{Util: 0.7, At: now})
	if load, fresh := vv.ServerLoad(s); load != 0.7 || !fresh {
		t.Fatalf("fresh report = (%v, %v), want (0.7, true)", load, fresh)
	}

	// Exactly at the TTL boundary the report still counts.
	ttl := v.Config().TTL
	now = ttl
	if _, fresh := vv.ServerLoad(s); !fresh {
		t.Fatal("report exactly TTL old must still be fresh")
	}

	// One tick past the TTL it goes stale — a silent server must stop
	// attracting load-aware traffic.
	now = ttl + time.Nanosecond
	if _, fresh := vv.ServerLoad(s); fresh {
		t.Fatal("report older than TTL must be stale")
	}

	// A fresh report recovers the server.
	v.Ingest(vip, s, Report{Util: 0.2, At: now})
	if load, fresh := vv.ServerLoad(s); load != 0.2 || !fresh {
		t.Fatalf("recovered report = (%v, %v), want (0.2, true)", load, fresh)
	}
}

func TestViewPerVIPIsolation(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vipA, vipB, s := addr(0), addr(1), addr(2)
	v.Ingest(vipA, s, Report{Util: 0.9, At: now})
	if _, fresh := v.For(vipB).ServerLoad(s); fresh {
		t.Fatal("report for vipA leaked into vipB's view")
	}
	if load, fresh := v.For(vipA).ServerLoad(s); load != 0.9 || !fresh {
		t.Fatalf("vipA view = (%v, %v)", load, fresh)
	}
	// For returns a stable pointer — schemes capture it once.
	if v.For(vipA) != v.For(vipA) {
		t.Fatal("For must return a stable per-VIP projection")
	}
}

func TestViewIngestReplacesAndCounts(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vip, s := addr(0), addr(1)
	v.Ingest(vip, s, Report{Util: 0.3, Flows: 1, At: 0})
	v.Ingest(vip, s, Report{Util: 0.6, Flows: 2, At: 0})
	if got := v.Stats().Ingests; got != 2 {
		t.Fatalf("Ingests = %d, want 2", got)
	}
	rpt, ok := v.For(vip).Report(s)
	if !ok || rpt.Util != 0.6 || rpt.Flows != 2 {
		t.Fatalf("Report = (%+v, %v), want the latest ingest", rpt, ok)
	}
	if _, ok := v.For(vip).Report(addr(9)); ok {
		t.Fatal("Report for an unknown server must report !ok")
	}
}

// A report belongs to the server, not to a (VIP, server) pair: the last
// report through any VIP is what every VIP the server joined reads, and
// a VIP the server never joined stays stale.
func TestViewReportIsPerServer(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vipA, vipB, vipC, s := addr(0), addr(1), addr(2), addr(3)
	v.Ingest(vipA, s, Report{Util: 0.9, At: now})
	v.Ingest(vipB, s, Report{Util: 0.2, At: now})
	for _, vip := range []netip.Addr{vipA, vipB} {
		if load, fresh := v.For(vip).ServerLoad(s); load != 0.2 || !fresh {
			t.Fatalf("VIP %v reads (%v, %v), want the server's latest report (0.2, true)", vip, load, fresh)
		}
	}
	if load, fresh := v.For(vipC).ServerLoad(s); load != 0 || fresh {
		t.Fatalf("never-joined VIP reads (%v, %v), want (0, false)", load, fresh)
	}
	if _, ok := v.For(vipC).Report(s); ok {
		t.Fatal("never-joined VIP returned a report")
	}
}

// Share binds a pool's VIPs to one membership group: a server joined
// once is visible through every one of them, members a projection had
// already joined carry over, and VIPs outside the group stay stale.
func TestViewShareGroup(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vipA, vipB, vipC, s1, s2 := addr(0), addr(1), addr(2), addr(3), addr(4)
	pa := v.For(vipA) // projection handed out before the group exists
	v.Ingest(vipA, s1, Report{Util: 0.4, At: now})
	g := v.Share([]netip.Addr{vipA, vipB})
	if v.For(vipA) != pa {
		t.Fatal("Share replaced a projection pointer handed out by For")
	}
	if g.Join(s1) != g.Join(s1) {
		t.Fatal("Join must return the server's one slot")
	}
	if load, fresh := v.For(vipB).ServerLoad(s1); load != 0.4 || !fresh {
		t.Fatalf("carried-over member reads (%v, %v) through vipB, want (0.4, true)", load, fresh)
	}
	g.Join(s2).Publish(Report{Util: 0.7, At: now})
	for _, vip := range []netip.Addr{vipA, vipB} {
		if load, fresh := v.For(vip).ServerLoad(s2); load != 0.7 || !fresh {
			t.Fatalf("VIP %v reads group member as (%v, %v), want (0.7, true)", vip, load, fresh)
		}
	}
	if _, fresh := v.For(vipC).ServerLoad(s2); fresh {
		t.Fatal("group member leaked into a VIP outside the group")
	}
	if got := v.Stats().Ingests; got != 2 {
		t.Fatalf("Ingests = %d, want 2 (one Ingest, one Publish)", got)
	}
}

// Reset forgets reports, not structure: For pointers and slot handles
// survive, every projection reads stale until the next report, and the
// lifetime counters are kept.
func TestViewResetKeepsPointersAndGoesStale(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vipA, vipB, s1, s2 := addr(0), addr(1), addr(2), addr(3)
	g := v.Share([]netip.Addr{vipA, vipB})
	slot1, slot2 := g.Join(s1), g.Join(s2)
	slot1.Publish(Report{Util: 0.5, At: now})
	slot2.Publish(Report{Util: 0.6, At: now})
	pa, pb := v.For(vipA), v.For(vipB)
	v.Reset()
	if v.For(vipA) != pa || v.For(vipB) != pb {
		t.Fatal("Reset invalidated a For pointer")
	}
	if g.Join(s1) != slot1 {
		t.Fatal("Reset invalidated a slot handle")
	}
	for _, vv := range []*VIPView{pa, pb} {
		for _, s := range []netip.Addr{s1, s2} {
			if load, fresh := vv.ServerLoad(s); load != 0 || fresh {
				t.Fatalf("after Reset %v reads (%v, %v), want (0, false)", s, load, fresh)
			}
			if _, ok := vv.Report(s); ok {
				t.Fatalf("after Reset %v still has a report", s)
			}
		}
	}
	if got := v.Stats().Ingests; got != 2 {
		t.Fatalf("Reset changed the lifetime counter: Ingests = %d, want 2", got)
	}
	now = time.Millisecond
	slot1.Publish(Report{Util: 0.3, At: now})
	if load, fresh := pb.ServerLoad(s1); load != 0.3 || !fresh {
		t.Fatalf("post-Reset report reads (%v, %v), want (0.3, true)", load, fresh)
	}
	if _, fresh := pb.ServerLoad(s2); fresh {
		t.Fatal("a server that has not reported since Reset reads fresh")
	}
}

func TestViewIngestSteadyStateAllocs(t *testing.T) {
	now := time.Duration(0)
	v := NewView(Config{Enabled: true}, func() time.Duration { return now })
	vip := addr(0)
	srv := []netip.Addr{addr(1), addr(2), addr(3)}
	for _, s := range srv {
		v.Ingest(vip, s, Report{At: now})
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range srv {
			v.Ingest(vip, s, Report{Util: 0.5, At: now})
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Ingest allocates %.1f times per round, want 0", allocs)
	}
	// The publishing tick's path: one write through a held slot handle.
	g := v.Share([]netip.Addr{addr(4), addr(5)})
	slots := make([]*Slot, len(srv))
	for i, s := range srv {
		slots[i] = g.Join(s)
	}
	allocs = testing.AllocsPerRun(200, func() {
		for _, sl := range slots {
			sl.Publish(Report{Util: 0.5, At: now})
		}
	})
	if allocs != 0 {
		t.Fatalf("Slot.Publish allocates %.1f times per round, want 0", allocs)
	}
}
