package testbed

import (
	"runtime"
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/rng"
)

// TestQueryPathAllocationBudget: on the paper's platform (12 servers,
// SR4, two random candidates) at 0.2× capacity, a query launched through
// Generator.Launch — SYN, hunt, SYN-ACK, request, processor-sharing
// service, response, sketch sink — costs at most allocPerQueryBudget
// heap allocations in steady state. The candidate slice returned by the
// random scheme is the one allocation every query still pays.
func TestQueryPathAllocationBudget(t *testing.T) {
	const (
		warmup              = 1000
		measured            = 3000
		rate                = 0.2 * 12 * 2 / 0.1 // 0.2 × servers × cores / E[S]
		meanDemand          = 100 * time.Millisecond
		allocPerQueryBudget = 4
	)
	tb := New(Config{Seed: 5, Servers: 12, Policy: func(int) agent.Policy { return agent.NewStatic(4) }})
	tb.Gen.Sink = NewSketchSink()
	arrivals, demands := rng.Split(5, 1), rng.Split(5, 2)
	at := make([]time.Duration, warmup+measured)
	queries := make([]Query, len(at))
	var now time.Duration
	for i := range at {
		now += rng.ExpRate(arrivals, rate)
		at[i] = now
		queries[i] = Query{ID: uint64(i), Demand: rng.Exp(demands, meanDemand)}
	}
	next := 0
	var launch func()
	launch = func() {
		tb.Gen.Launch(queries[next])
		next++
		if next < len(at) {
			tb.Sim.Schedule(at[next], launch)
		}
	}
	tb.Sim.Schedule(at[0], launch)

	tb.Sim.RunUntil(at[warmup])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb.Sim.RunUntil(at[len(at)-1])
	runtime.ReadMemStats(&after)
	tb.Sim.Run()

	perQuery := float64(after.Mallocs-before.Mallocs) / float64(len(at)-1-warmup)
	t.Logf("%.2f allocs per query", perQuery)
	if perQuery > allocPerQueryBudget {
		t.Errorf("%.2f allocs per query, budget %d", perQuery, allocPerQueryBudget)
	}
	if got := tb.Gen.Sink.(*SketchSink).Total().Counters.OK; got != uint64(len(at)) {
		t.Errorf("%d queries served, want %d", got, len(at))
	}
}
