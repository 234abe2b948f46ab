package appserver

import (
	"testing"
	"time"

	"srlb/internal/des"
)

// TestSameInstantCompletionsInAdmissionOrder: requests that finish at the
// same virtual instant — one of them promoted from the backlog — fire
// their callbacks in admission-id order. Demands are binary fractions of
// a second, so the processor-sharing arithmetic is exact and the ties
// are real.
func TestSameInstantCompletionsInAdmissionOrder(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Config{Workers: 2, Cores: 2, Backlog: 4, AbortOnOverflow: true})
	const unit = time.Second / 64 // 15.625 ms
	type done struct {
		id int
		at time.Duration
	}
	var got []done
	for id, demand := range []time.Duration{unit, 2 * unit, unit} {
		if v := s.Offer(demand, func() { got = append(got, done{id, sim.Now()}) }); v != Admitted {
			t.Fatalf("offer %d: %v", id, v)
		}
	}
	if s.QueueLen() != 1 {
		t.Fatalf("backlog = %d, want request 2 queued", s.QueueLen())
	}
	sim.Run()
	want := []done{{0, unit}, {1, 2 * unit}, {2, 2 * unit}}
	if len(got) != len(want) {
		t.Fatalf("completions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completions %v, want %v", got, want)
		}
	}
}

// TestSteadyStateAllocationFree: once the server has seen a full worker
// pool plus a backlog, further Offer/complete cycles — processor
// sharing, backlog promotion, same-instant batches — allocate nothing.
func TestSteadyStateAllocationFree(t *testing.T) {
	sim := des.New()
	s := New(sim, "s1", Default())
	completed := 0
	onDone := func() { completed++ }
	cycle := func() {
		for i := 0; i < 40; i++ { // 32 workers busy, 8 queued
			s.Offer(time.Duration(1+i%7)*time.Millisecond, onDone)
		}
		sim.Run()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%v allocs per 40-request cycle, want 0", allocs)
	}
	if completed != 21*40 {
		t.Errorf("completed %d, want %d", completed, 21*40)
	}
}
