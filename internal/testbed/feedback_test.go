package testbed

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/feedback"
	"srlb/internal/rng"
	"srlb/internal/selection"
)

// wllFeedbackScheme is the load-aware constructor the experiments use,
// minus the typed-nil dance (the view is always real here).
func wllFeedbackScheme(servers []netip.Addr, r *rand.Rand, view *feedback.VIPView) selection.Scheme {
	var lv selection.LoadView
	if view != nil {
		lv = view
	}
	return selection.NewWeightedLeastLoad(servers, 2, r, lv)
}

// Staleness end to end: a server that stops publishing (here: fails)
// goes stale in the shared view one TTL after its last report, while the
// survivors stay fresh through the periodic ticks — so every load-aware
// scheme demotes to its oblivious fallback exactly for the silent
// server. A later fresh report recovers it.
func TestFeedbackStalenessAndRecovery(t *testing.T) {
	const servers = 3
	failAt := 20 * time.Millisecond
	tb := Build(Topology{
		Seed: 41,
		VIPs: []VIPSpec{{
			Servers:        servers,
			Scheme:         func(s []netip.Addr, r *rand.Rand) selection.Scheme { return selection.NewRandom(s, 2, r) },
			FeedbackScheme: wllFeedbackScheme,
		}},
		// Horizon 0: no automatic ticker — the test drives publication.
		Feedback: feedback.Config{Enabled: true},
		Events:   []Event{FailServer(failAt, 0, 1)},
	})
	if tb.Feedback == nil {
		t.Fatal("feedback plane not built")
	}
	cfg := tb.Feedback.Config()
	vip := tb.VIPAddrOf(0)
	view := tb.Feedback.For(vip)
	victim := PoolServerAddr(0, 1)

	type probe struct {
		at     time.Duration
		fresh  map[netip.Addr]bool
		sample bool
	}
	var got []probe
	check := func(at time.Duration, sample bool) {
		tb.Sim.At(at, func() {
			if sample {
				tb.PublishFeedback()
			}
			p := probe{at: at, fresh: make(map[netip.Addr]bool, servers), sample: sample}
			for i := 0; i < servers; i++ {
				a := PoolServerAddr(0, i)
				_, fresh := view.ServerLoad(a)
				p.fresh[a] = fresh
			}
			got = append(got, p)
		})
	}

	// t=10ms: everyone publishes. t=10ms+TTL+1ms: the victim has failed
	// (the declared Event) and published nothing since, survivors
	// republished — the victim alone must be stale. A later fresh report
	// (direct ingest: failed servers can't publish) recovers it.
	check(10*time.Millisecond, true)
	staleAt := 10*time.Millisecond + cfg.TTL + time.Millisecond
	check(staleAt-2*time.Millisecond, true) // survivors refresh; victim silent
	check(staleAt, false)
	recoverAt := staleAt + time.Millisecond
	tb.Sim.At(recoverAt, func() {
		tb.Feedback.Ingest(vip, victim, feedback.Report{Util: 0.1, At: tb.Sim.Now()})
	})
	check(recoverAt+time.Millisecond, false)
	tb.Sim.Run()

	if len(got) != 4 {
		t.Fatalf("%d probes ran, want 4", len(got))
	}
	for i := 0; i < servers; i++ {
		if !got[0].fresh[PoolServerAddr(0, i)] {
			t.Fatalf("server %d not fresh right after the first publish", i)
		}
	}
	for i := 0; i < servers; i++ {
		a := PoolServerAddr(0, i)
		wantFresh := a != victim
		if got[2].fresh[a] != wantFresh {
			t.Fatalf("at TTL expiry: server %d fresh=%v, want %v (victim is silent)",
				i, got[2].fresh[a], wantFresh)
		}
	}
	if !got[3].fresh[victim] {
		t.Fatal("fresh report did not recover the stale server")
	}
}

// The periodic publishing ticker: with a positive horizon, reports land
// every interval without any workload, the simulation still terminates,
// and ticks stop at the horizon — plus every replica owns its own view
// and each receives every tick's reports.
func TestFeedbackPublishingTicker(t *testing.T) {
	horizon := time.Second
	tb := Build(Topology{
		Seed:     43,
		Replicas: 2,
		VIPs: []VIPSpec{{
			Servers:        2,
			Scheme:         func(s []netip.Addr, r *rand.Rand) selection.Scheme { return selection.NewRandom(s, 2, r) },
			FeedbackScheme: wllFeedbackScheme,
		}},
		Feedback: feedback.Config{Enabled: true, Interval: 100 * time.Millisecond, Horizon: horizon},
	})
	tb.Sim.Run()
	if end := tb.Sim.Now(); end > horizon {
		t.Fatalf("ticker ran past its horizon: sim ended at %v", end)
	}
	// 10 ticks × 2 servers × 1 VIP, delivered to each replica's view.
	if got := tb.Feedback.Stats().Ingests; got != 20 {
		t.Fatalf("Ingests = %d, want 20 (10 bounded ticks over 2 servers)", got)
	}
	// Per-replica views: distinct subscriptions, identical contents.
	if tb.FeedbackOf(0) != tb.Feedback {
		t.Fatal("Testbed.Feedback is not replica 0's view")
	}
	if tb.FeedbackOf(1) == tb.FeedbackOf(0) {
		t.Fatal("replicas share one view; each must own its subscription")
	}
	if got := tb.FeedbackOf(1).Stats().Ingests; got != 20 {
		t.Fatalf("replica 1 Ingests = %d, want 20 (same reports as replica 0)", got)
	}
	vip := tb.VIPAddrOf(0)
	for r := 0; r < 2; r++ {
		view := tb.FeedbackOf(r).For(vip)
		for i := 0; i < 2; i++ {
			if _, ok := view.Report(PoolServerAddr(0, i)); !ok {
				t.Fatalf("server %d never reported to replica %d through the ticker", i, r)
			}
		}
	}
}

// A recovering replica comes back with no telemetry: its view resets,
// so it answers stale for every server until the next publish tick —
// even though its pre-crash reports would still be within TTL — while
// the surviving replica stays fresh throughout. Warm handoff transfers
// flows, not telemetry, so both recover kinds pin the same staleness.
func TestFeedbackStalenessAfterReplicaRecover(t *testing.T) {
	recovers := []struct {
		name string
		ev   Event
	}{
		{"stateless", RecoverReplica(50*time.Millisecond, 1)},
		{"warm", RecoverReplicaWarm(50*time.Millisecond, 1, 0)},
	}
	for _, rec := range recovers {
		t.Run(rec.name, func(t *testing.T) {
			const servers = 2
			tb := Build(Topology{
				Seed:     53,
				Replicas: 2,
				VIPs: []VIPSpec{{
					Servers:        servers,
					Scheme:         func(s []netip.Addr, r *rand.Rand) selection.Scheme { return selection.NewRandom(s, 2, r) },
					FeedbackScheme: wllFeedbackScheme,
				}},
				// Horizon 0: no automatic ticker — the test publishes.
				Feedback: feedback.Config{Enabled: true},
				Events:   []Event{FailReplica(30*time.Millisecond, 1), rec.ev},
			})
			vip := tb.VIPAddrOf(0)
			freshCount := func(r int) int {
				n := 0
				view := tb.FeedbackOf(r).For(vip)
				for i := 0; i < servers; i++ {
					if _, fresh := view.ServerLoad(PoolServerAddr(0, i)); fresh {
						n++
					}
				}
				return n
			}
			publish := func(at time.Duration) { tb.Sim.At(at, tb.PublishFeedback) }
			probe := func(at time.Duration, want0, want1 int, what string) {
				tb.Sim.At(at, func() {
					if got := freshCount(0); got != want0 {
						t.Errorf("%s: replica 0 has %d fresh servers, want %d", what, got, want0)
					}
					if got := freshCount(1); got != want1 {
						t.Errorf("%s: replica 1 has %d fresh servers, want %d", what, got, want1)
					}
				})
			}
			publish(20 * time.Millisecond)
			probe(25*time.Millisecond, servers, servers, "before the kill")
			publish(40 * time.Millisecond) // replica 1 down: replica 0 only
			// The recover at 50ms resets replica 1's view. Its 20ms reports
			// are still well inside the default 300ms TTL — the reset, not
			// the TTL, is what makes the restarted replica stale.
			probe(55*time.Millisecond, servers, 0, "after recover, before any publish")
			publish(60 * time.Millisecond)
			probe(61*time.Millisecond, servers, servers, "after the first post-recover publish")
			tb.Sim.Run()
			// Replica 0 received all three publishes; replica 1 missed the
			// one during its downtime.
			if got := tb.FeedbackOf(0).Stats().Ingests; got != 3*servers {
				t.Fatalf("replica 0 Ingests = %d, want %d", got, 3*servers)
			}
			if got := tb.FeedbackOf(1).Stats().Ingests; got != 2*servers {
				t.Fatalf("replica 1 Ingests = %d, want %d", got, 2*servers)
			}
		})
	}
}

// Feedback disabled is the zero-cost default: no view, and VIPs with a
// FeedbackScheme fall back to their plain Scheme.
func TestFeedbackDisabledUsesPlainScheme(t *testing.T) {
	built := 0
	tb := Build(Topology{
		Seed: 47,
		VIPs: []VIPSpec{{
			Servers: 2,
			Scheme: func(s []netip.Addr, r *rand.Rand) selection.Scheme {
				built++
				return selection.NewRandom(s, 2, r)
			},
			FeedbackScheme: func([]netip.Addr, *rand.Rand, *feedback.VIPView) selection.Scheme {
				t.Fatal("FeedbackScheme invoked with the plane disabled")
				return nil
			},
		}},
	})
	if tb.Feedback != nil {
		t.Fatal("view built with feedback disabled")
	}
	if built != 1 {
		t.Fatalf("plain scheme built %d times, want 1", built)
	}
}

// feedbackSteeringDigest drives a feedback-enabled shared-pool cluster —
// 40 generated VIPs over 3 pools × 4 servers, two anycast replicas
// running wleastload fed by the periodic publishing tick, a replica
// kill/recover pair so the view-reset path runs — and folds every
// client-observed Result plus each replica's LB counters into one
// digest. Every steering decision reads the telemetry view, so any
// change to what a projection answers (value, freshness, timing) moves
// the hash.
func feedbackSteeringDigest() uint64 {
	top := GenerateTopology(GenSpec{
		Seed:           211,
		VIPs:           40,
		Pools:          3,
		ServersPerPool: 4,
		Replicas:       2,
		Fallback:       testFallback,
		Events: []Event{
			// Replica 1's last report lands at 280 ms; at the 325 ms
			// recovery it is 45 ms old, inside the 60 ms TTL, so only
			// the view reset makes the restarted replica steer
			// obliviously until the 340 ms tick.
			FailReplica(300*time.Millisecond, 1),
			RecoverReplica(325*time.Millisecond, 1),
		},
	})
	for p := range top.Pools {
		top.Pools[p].Policy = func(int) agent.Policy { return agent.NewStatic(4) }
	}
	for v := range top.VIPs {
		top.VIPs[v].FeedbackScheme = wllFeedbackScheme
	}
	top.Feedback = feedback.Config{Enabled: true, Interval: 20 * time.Millisecond, Horizon: time.Second}
	tb := Build(top)
	tb.Gen.RetainResults = true
	r := rng.Split(211, 0xd1ce)
	p := rng.NewPoisson(rng.Split(211, 0xa17), 1400, 0)
	for i := 0; i < 1000; i++ {
		at := p.Next()
		q := Query{ID: uint64(i), VIP: tb.VIPAddrOf(int(r.Uint64() % 40)), Demand: rng.Exp(r, 12*time.Millisecond)}
		tb.Sim.At(at, func() { tb.Gen.Launch(q) })
	}
	tb.Sim.Run()
	tb.Gen.DrainPending()
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], resultsDigest(tb.Gen.Results()))
	h.Write(buf[:])
	for _, lb := range tb.LBs {
		for _, k := range lb.Counts.Keys() {
			h.Write([]byte(k))
			binary.BigEndian.PutUint64(buf[:], lb.Counts.Get(k))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// The digest below was recorded when every view stored one report per
// (VIP, server) pair and each tick fanned a server's sample out to every
// VIP of its pool. Per-server report slots must steer identically: the
// same reports, fresh at the same instants, reset at the same recovery.
func TestFeedbackSteeringGolden(t *testing.T) {
	const want = uint64(0x98b515c946ede564)
	if got := feedbackSteeringDigest(); got != want {
		t.Fatalf("feedback steering digest = %#x, want %#x — the telemetry plane changed what wleastload saw", got, want)
	}
}

// A load report is a property of a server, not of a (VIP, server) pair:
// one publish writes each live server's sample once into every live
// replica's view, however many VIPs share its pool — while every VIP's
// projection still answers for exactly its own pool's servers, fresh at
// the publisher's utilization, and a down replica's view stays untouched.
func TestPublishFeedbackOncePerServer(t *testing.T) {
	const (
		vips    = 200
		pools   = 4
		perPool = 3
	)
	top := GenerateTopology(GenSpec{
		Seed:           223,
		VIPs:           vips,
		Pools:          pools,
		ServersPerPool: perPool,
		Replicas:       2,
		Events:         []Event{FailReplica(0, 1)},
	})
	for v := range top.VIPs {
		top.VIPs[v].FeedbackScheme = wllFeedbackScheme
	}
	// Horizon 0: no automatic ticker — the test publishes once.
	top.Feedback = feedback.Config{Enabled: true}
	tb := Build(top)
	// Long queries on a few VIPs, so some servers are busy at the publish
	// instant and utilizations differ.
	for i := 0; i < 24; i++ {
		q := Query{ID: uint64(i), VIP: tb.VIPAddrOf(i % 7), Demand: time.Second}
		tb.Sim.At(time.Duration(i)*100*time.Microsecond, func() { tb.Gen.Launch(q) })
	}
	ran := false
	tb.Sim.At(20*time.Millisecond, func() {
		ran = true
		want := make(map[netip.Addr]float64, pools*perPool)
		busy := 0
		for v := 0; v < pools; v++ {
			for i := 0; i < perPool; i++ {
				srv := tb.ServerOf(v, i)
				want[SharedPoolServerAddr(v, i)] = float64(srv.BusyWorkers()) / float64(srv.TotalWorkers())
				busy += srv.BusyWorkers()
			}
		}
		if busy == 0 {
			t.Fatal("no server busy at the publish instant; the probe would not tell utilizations apart")
		}
		before0, before1 := tb.FeedbackOf(0).Stats(), tb.FeedbackOf(1).Stats()
		tb.PublishFeedback()
		if got := tb.FeedbackOf(0).Stats().Ingests - before0.Ingests; got != pools*perPool {
			t.Fatalf("live replica ingested %d reports in one publish, want %d (one per live server)", got, pools*perPool)
		}
		if got := tb.FeedbackOf(1).Stats(); got != before1 {
			t.Fatalf("down replica's view changed on publish: %+v -> %+v", before1, got)
		}
		for v := 0; v < vips; v++ {
			live, down := tb.FeedbackOf(0).For(tb.VIPAddrOf(v)), tb.FeedbackOf(1).For(tb.VIPAddrOf(v))
			for p := 0; p < pools; p++ {
				for i := 0; i < perPool; i++ {
					a := SharedPoolServerAddr(p, i)
					load, fresh := live.ServerLoad(a)
					if p == v%pools {
						if !fresh || load != want[a] {
							t.Fatalf("VIP %d reads own-pool server %v as (%v, %v), want (%v, true)", v, a, load, fresh, want[a])
						}
					} else if load != 0 || fresh {
						t.Fatalf("VIP %d reads pool-%d server %v as (%v, %v), want (0, false)", v, p, a, load, fresh)
					}
					if load, fresh := down.ServerLoad(a); load != 0 || fresh {
						t.Fatalf("down replica's VIP %d reads %v as (%v, %v), want (0, false)", v, a, load, fresh)
					}
				}
			}
		}
	})
	tb.Sim.Run()
	if !ran {
		t.Fatal("publish probe never ran")
	}
}
