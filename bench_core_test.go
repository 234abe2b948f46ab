// Core hot-path benchmarks and the BENCH_core.json perf trajectory.
//
// Eight benchmarks cover the layers the perf work touches: the DES
// event kernel, sketch ingestion, the generator's sink-mode query path,
// a reference figure-2 cell, the per-packet dispatch lookup at 1k and
// 10k advertised VIPs, and the telemetry plane's report ingest and
// 1k-VIP publishing tick. TestBenchCore (gated behind SRLB_BENCH_CORE=1)
// runs them through testing.Benchmark, writes the measurements to
// BENCH_core.json, and fails when any benchmark's allocs/op regresses
// more than 2x against the committed baseline — the CI smoke job runs
// it with -benchtime=1x. TestDispatchComplexityClass (same gate) pins
// the O(1) claim directly: dispatch at 10k VIPs must stay within 2x of
// its 1k cost on both the SYN and steered paths.
package srlb_test

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"srlb"
	"srlb/internal/des"
	"srlb/internal/experiments"
	"srlb/internal/feedback"
	"srlb/internal/rng"
	"srlb/internal/sketch"
	"srlb/internal/testbed"
)

// BenchmarkDESKernel measures the calendar-queue schedule/fire cycle
// with a realistically sized co-pending event set.
func BenchmarkDESKernel(b *testing.B) {
	sim := des.New()
	const pending = 4096
	r := rng.New(7)
	spacing := 50 * time.Microsecond
	for i := 0; i < pending; i++ {
		sim.Schedule(time.Duration(r.Int64N(int64(pending)*int64(spacing))), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fired int
	for i := 0; i < b.N; i++ {
		// Each op: fire one event and schedule a replacement, keeping the
		// pending population constant — the steady state of a long run.
		sim.Step()
		fired++
		sim.ScheduleAfter(time.Duration(pending)*spacing, func() {})
	}
	_ = fired
}

// BenchmarkSketchAdd measures histogram ingestion over a heavy-tailed
// sample stream (the response-time shape the sink sees).
func BenchmarkSketchAdd(b *testing.B) {
	h := sketch.New()
	r := rng.New(11)
	samples := make([]time.Duration, 8192)
	for i := range samples {
		samples[i] = rng.Exp(r, 100*time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(samples[i&8191])
	}
	benchCoreSink = h.Count()
}

// BenchmarkGeneratorSink measures the full sink-mode query path: one op
// is one query launched, balanced, served, and folded into the sketch —
// packets, timers, and pending records all recycled.
func BenchmarkGeneratorSink(b *testing.B) {
	tb := testbed.New(testbed.Config{Seed: 13, Servers: 4})
	sink := testbed.NewSketchSink()
	tb.Gen.Sink = sink
	r := rng.Split(13, 99)
	p := rng.NewPoisson(r, 200, 0)
	b.ReportAllocs()
	b.ResetTimer()
	remaining := b.N
	var id uint64
	var launchNext func()
	launchNext = func() {
		if remaining == 0 {
			return
		}
		remaining--
		q := testbed.Query{ID: id, Demand: rng.Exp(r, 20*time.Millisecond)}
		id++
		tb.Gen.Launch(q)
		if remaining > 0 {
			tb.Sim.At(p.Next(), launchNext)
		}
	}
	tb.Sim.At(p.Next(), launchNext)
	tb.Sim.Run()
	tb.Gen.DrainPending()
	benchCoreSink = int(sink.Total().Counters.Offered)
}

// BenchmarkFig2Cell measures one scaled reference figure-2 cell end to
// end (the unit of every sweep).
func BenchmarkFig2Cell(b *testing.B) {
	cluster := srlb.Cluster{Seed: 0xbe7c, Servers: 4}
	l0 := cluster.TheoreticalCapacity()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := srlb.RunPoisson(cluster, srlb.SRStatic(4), 0.85*l0, 3000)
		benchCoreSink = run.RT.Count()
	}
}

// benchmarkDispatchLookup measures the steered per-packet path (VIP
// index lookup → flow-table hit → steer SRH → wire marshal) on a
// generated topology of the given service count. The rig never runs the
// simulator and drops every delivery, so one op is pure dispatch work.
func benchmarkDispatchLookup(b *testing.B, vips int) {
	rig := experiments.NewDispatchRig(0x51ca1e, vips, 16, 12, experiments.VIPScaleSchemes()[0])
	const flows = 4096
	rig.SeedFlows(flows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.SteerOp(i, flows)
	}
}

// BenchmarkDispatchLookup1k is the steered dispatch cost at 1k VIPs.
func BenchmarkDispatchLookup1k(b *testing.B) { benchmarkDispatchLookup(b, 1000) }

// BenchmarkDispatchLookup10k is the same loop at 10k VIPs — with O(1)
// dispatch its ns/op matches the 1k figure; any per-VIP scan would show
// up as a ~10x blowout here.
func BenchmarkDispatchLookup10k(b *testing.B) { benchmarkDispatchLookup(b, 10000) }

// BenchmarkFeedbackIngest measures the telemetry plane's steady-state
// ingest path: one op is one server sampling its scoreboard (EWMA fold)
// and ingesting the report through a VIP into the server's report slot.
// After first contact the slot and the VIP's membership are reused, so
// the loop must allocate nothing — publishing scales with servers ×
// reporting rate, and any per-report allocation would dominate long
// feedback-enabled sweeps.
func BenchmarkFeedbackIngest(b *testing.B) {
	var now time.Duration
	view := feedback.NewView(feedback.Config{Enabled: true}, func() time.Duration { return now })
	vip := netip.MustParseAddr("2001:db8::1")
	const servers = 16
	addrs := make([]netip.Addr, servers)
	pubs := make([]*feedback.Publisher, servers)
	addr := netip.MustParseAddr("2001:db8:0:1::1")
	for i := range addrs {
		addrs[i] = addr
		addr = addr.Next()
		pubs[i] = feedback.NewPublisher(0)
		view.Ingest(vip, addrs[i], pubs[i].Sample(now, i%8, 8, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % servers
		now += time.Millisecond
		view.Ingest(vip, addrs[s], pubs[s].Sample(now, s%8, 8, i&31))
	}
	benchCoreSink = int(view.Stats().Ingests)
}

// BenchmarkFeedbackPublish1k measures one publishing tick
// (Testbed.PublishFeedback) on a generated 1k-VIP cluster of 16 shared
// pools × 12 servers with wleastload on every VIP: one op samples all
// 192 servers and writes each report once into the view's per-server
// slot, whatever the number of VIPs per pool. The tick must allocate
// nothing, and its cost must scale with servers, not VIPs × servers.
func BenchmarkFeedbackPublish1k(b *testing.B) {
	top := testbed.GenerateTopology(testbed.GenSpec{Seed: 0xfeed, VIPs: 1000, Pools: 16, ServersPerPool: 12})
	wll := experiments.WeightedLeastLoadPolicy().Scheme
	for v := range top.VIPs {
		top.VIPs[v].FeedbackScheme = wll
	}
	top.Feedback = feedback.Config{Enabled: true}
	tb := testbed.Build(top)
	tb.PublishFeedback()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.PublishFeedback()
	}
	benchCoreSink = int(tb.Feedback.Stats().Ingests)
}

// TestDispatchComplexityClass pins the complexity class the vipscale
// experiment plots: per-packet dispatch cost at 10k advertised services
// must stay within 2x of the 1k cost on both the SYN (Service Hunting)
// and steered (flow-table hit) paths. The 2x bound is deliberately
// loose — cache effects at 10x the working set are real — but an O(n)
// dispatch structure fails it by a factor of ~5. Timing is done with
// manual min-over-rounds wall loops (not testing.Benchmark) so the test
// stays meaningful under the CI smoke job's -benchtime=1x.
func TestDispatchComplexityClass(t *testing.T) {
	if os.Getenv("SRLB_BENCH_CORE") == "" {
		t.Skip("set SRLB_BENCH_CORE=1 to run the complexity-class regression")
	}
	const (
		ops    = 50000
		rounds = 5
		flows  = 4096
		bound  = 2.0
	)
	measure := func(vips int) (synNs, steerNs float64) {
		rig := experiments.NewDispatchRig(0x51ca1e, vips, 16, 12, experiments.VIPScaleSchemes()[0])
		rig.SeedFlows(flows)
		rig.MeasureSYN(ops / 10)
		rig.MeasureSteered(ops/10, flows)
		for round := 0; round < rounds; round++ {
			if s := rig.MeasureSYN(ops); round == 0 || s < synNs {
				synNs = s
			}
			if s := rig.MeasureSteered(ops, flows); round == 0 || s < steerNs {
				steerNs = s
			}
		}
		return synNs, steerNs
	}
	syn1k, steer1k := measure(1000)
	syn10k, steer10k := measure(10000)
	t.Logf("syn: 1k %.0f ns/op, 10k %.0f ns/op (ratio %.2f)", syn1k, syn10k, syn10k/syn1k)
	t.Logf("steer: 1k %.0f ns/op, 10k %.0f ns/op (ratio %.2f)", steer1k, steer10k, steer10k/steer1k)
	if syn10k > bound*syn1k {
		t.Errorf("SYN dispatch at 10k VIPs costs %.0f ns/op, more than %.1fx the 1k cost %.0f — dispatch is not O(1)",
			syn10k, bound, syn1k)
	}
	if steer10k > bound*steer1k {
		t.Errorf("steered dispatch at 10k VIPs costs %.0f ns/op, more than %.1fx the 1k cost %.0f — dispatch is not O(1)",
			steer10k, bound, steer1k)
	}
}

var benchCoreSink int

// benchCoreJSON is the BENCH_core.json schema: one row per benchmark
// with the headline per-op costs plus the post-run live heap.
type benchCoreJSON struct {
	Schema     string          `json:"schema"`
	GoVersion  string          `json:"go_version"`
	Benchmarks []benchCoreCase `json:"benchmarks"`
}

type benchCoreCase struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// HeapAfter is HeapAlloc right after the benchmark returned (before
	// any explicit GC) — a coarse peak-liveness signal for the smoke job.
	HeapAfter uint64 `json:"heap_after_bytes"`
}

// TestBenchCore emits BENCH_core.json and enforces the allocs/op
// regression gate against the committed baseline. Gated behind
// SRLB_BENCH_CORE=1 so the ordinary test run stays fast; the CI smoke
// job runs it with -benchtime=1x.
func TestBenchCore(t *testing.T) {
	if os.Getenv("SRLB_BENCH_CORE") == "" {
		t.Skip("set SRLB_BENCH_CORE=1 to run the core benchmark smoke suite")
	}
	cases := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"DESKernel", BenchmarkDESKernel},
		{"SketchAdd", BenchmarkSketchAdd},
		{"GeneratorSink", BenchmarkGeneratorSink},
		{"Fig2Cell", BenchmarkFig2Cell},
		{"DispatchLookup1k", BenchmarkDispatchLookup1k},
		{"DispatchLookup10k", BenchmarkDispatchLookup10k},
		{"FeedbackIngest", BenchmarkFeedbackIngest},
		{"FeedbackPublish1k", BenchmarkFeedbackPublish1k},
	}
	// Read the committed baseline before the output path can clobber it
	// (locally both default to BENCH_core.json).
	baseline, baseErr := readBenchCoreBaseline("BENCH_core.json")
	if baseErr != nil {
		t.Fatal(baseErr)
	}

	out := benchCoreJSON{Schema: "bench_core/v1", GoVersion: runtime.Version()}
	var ms runtime.MemStats
	for _, c := range cases {
		res := testing.Benchmark(c.fn)
		runtime.ReadMemStats(&ms)
		row := benchCoreCase{
			Name:        c.name,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			HeapAfter:   ms.HeapAlloc,
		}
		out.Benchmarks = append(out.Benchmarks, row)
		t.Logf("%-14s n=%-8d %12.1f ns/op %6d allocs/op %10d B/op", row.Name, row.N, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	}

	path := os.Getenv("SRLB_BENCH_CORE_OUT")
	if path == "" {
		path = "BENCH_core.json"
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)

	if err := checkBenchCoreBaseline(baseline, out); err != nil {
		t.Fatal(err)
	}
}

// readBenchCoreBaseline loads the committed baseline; a missing file is
// not an error (the first run seeds it).
func readBenchCoreBaseline(path string) (*benchCoreJSON, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var base benchCoreJSON
	if err := json.Unmarshal(buf, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &base, nil
}

// benchCoreAllocSlack absorbs one-time setup allocations: at the CI
// smoke job's -benchtime=1x a benchmark runs a single op, so its fixed
// setup (testbed construction, first slice growths) lands entirely on
// that op's allocs/op instead of amortizing away.
const benchCoreAllocSlack = 64

// checkBenchCoreBaseline compares allocs/op against the committed
// BENCH_core.json: growth beyond 2x + slack on any benchmark fails.
// ns/op is NOT gated — CI machines vary too much — but travels in the
// artifact so regressions stay visible across commits.
func checkBenchCoreBaseline(base *benchCoreJSON, cur benchCoreJSON) error {
	if base == nil {
		return nil
	}
	byName := make(map[string]benchCoreCase, len(base.Benchmarks))
	for _, c := range base.Benchmarks {
		byName[c.Name] = c
	}
	for _, c := range cur.Benchmarks {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		if c.AllocsPerOp > 2*b.AllocsPerOp+benchCoreAllocSlack {
			return fmt.Errorf("%s: %d allocs/op, more than 2x the baseline %d (+%d slack)",
				c.Name, c.AllocsPerOp, b.AllocsPerOp, benchCoreAllocSlack)
		}
	}
	return nil
}
