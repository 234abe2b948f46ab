package selection

import (
	"fmt"
	"math"
	"net/netip"
	"testing"

	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/rng"
)

func servers(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = ipv6.MustAddr(fmt.Sprintf("2001:db8:5::%x", i+1))
	}
	return out
}

func flow(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     ipv6.MustAddr(fmt.Sprintf("2001:db8:c::%x", i%200+1)),
		Dst:     ipv6.MustAddr("2001:db8:f00d::1"),
		SrcPort: uint16(1024 + i),
		DstPort: 80,
	}
}

func TestRandomDistinctCandidates(t *testing.T) {
	s := NewRandom(servers(12), 2, rng.New(1))
	for i := 0; i < 5000; i++ {
		picks := s.Pick(flow(i))
		if len(picks) != 2 {
			t.Fatalf("len = %d", len(picks))
		}
		if picks[0] == picks[1] {
			t.Fatal("candidates must be distinct")
		}
	}
}

// Pick's result is scheme-owned scratch: allocation-free, and never the
// shuffle state itself — a caller reordering the result in place (as
// WeightedLeastLoad does) must not perturb later draws.
func TestRandomPickScratch(t *testing.T) {
	s := NewRandom(servers(12), 2, rng.New(5))
	ref := NewRandom(servers(12), 2, rng.New(5))
	for i := 0; i < 1000; i++ {
		p, q := s.Pick(flow(i)), ref.Pick(flow(i))
		if p[0] != q[0] || p[1] != q[1] {
			t.Fatalf("draw %d diverged after in-place reorders: %v vs %v", i, p, q)
		}
		p[0], p[1] = p[1], p[0]
	}
	f := flow(0)
	if allocs := testing.AllocsPerRun(100, func() { s.Pick(f) }); allocs != 0 {
		t.Fatalf("Random.Pick allocates %.1f times per call, want 0", allocs)
	}
}

func TestRandomUniformity(t *testing.T) {
	srv := servers(12)
	s := NewRandom(srv, 2, rng.New(2))
	counts := make(map[netip.Addr]int)
	const n = 60000
	for i := 0; i < n; i++ {
		for _, a := range s.Pick(flow(i)) {
			counts[a]++
		}
	}
	// Each server should appear in ≈ n*2/12 lists.
	want := float64(n) * 2 / 12
	for _, a := range srv {
		got := float64(counts[a])
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("server %v picked %v times, want ≈%v", a, got, want)
		}
	}
}

func TestRandomFirstPositionUniform(t *testing.T) {
	srv := servers(6)
	s := NewRandom(srv, 2, rng.New(3))
	first := make(map[netip.Addr]int)
	const n = 60000
	for i := 0; i < n; i++ {
		first[s.Pick(flow(i))[0]]++
	}
	want := float64(n) / 6
	for _, a := range srv {
		got := float64(first[a])
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("server %v first %v times, want ≈%v", a, got, want)
		}
	}
}

func TestRandomK1(t *testing.T) {
	s := NewRandom(servers(4), 1, rng.New(4))
	if s.Name() != "random1" {
		t.Fatalf("name = %q", s.Name())
	}
	if len(s.Pick(flow(0))) != 1 {
		t.Fatal("k=1 must return one server")
	}
}

func TestRandomPanics(t *testing.T) {
	for _, tc := range []struct {
		n, k int
	}{{3, 0}, {2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d k=%d should panic", tc.n, tc.k)
				}
			}()
			NewRandom(servers(tc.n), tc.k, rng.New(1))
		}()
	}
}

func TestRoundRobinCycles(t *testing.T) {
	srv := servers(4)
	s := NewRoundRobin(srv, 2)
	if s.Name() != "roundrobin2" {
		t.Fatalf("name = %q", s.Name())
	}
	counts := make(map[netip.Addr]int)
	for i := 0; i < 8; i++ {
		picks := s.Pick(flow(i))
		if len(picks) != 2 || picks[0] == picks[1] {
			t.Fatalf("bad picks %v", picks)
		}
		counts[picks[0]]++
	}
	// After 8 picks over 4 servers, each led exactly twice.
	for _, a := range srv {
		if counts[a] != 2 {
			t.Fatalf("server %v led %d times, want 2", a, counts[a])
		}
	}
}

func TestConsistentHashStability(t *testing.T) {
	s, err := NewConsistentHash(servers(12), 4099)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "chash2" {
		t.Fatalf("name = %q", s.Name())
	}
	for i := 0; i < 200; i++ {
		f := flow(i)
		a := s.Pick(f)
		b := s.Pick(f)
		if len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
			t.Fatal("consistent hash must be deterministic per flow")
		}
		if a[0] == a[1] {
			t.Fatal("candidates must be distinct")
		}
	}
}

func TestConsistentHashSpread(t *testing.T) {
	srv := servers(12)
	s, err := NewConsistentHash(srv, 65537)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[netip.Addr]int)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[s.Pick(flow(i * 7))[0]]++
	}
	want := float64(n) / 12
	for _, a := range srv {
		got := float64(counts[a])
		if math.Abs(got-want)/want > 0.25 {
			t.Fatalf("server %v primary for %v flows, want ≈%v", a, got, want)
		}
	}
}

func TestConsistentHashSingleServer(t *testing.T) {
	s, err := NewConsistentHash(servers(1), 101)
	if err != nil {
		t.Fatal(err)
	}
	picks := s.Pick(flow(0))
	if len(picks) != 1 {
		t.Fatalf("single-server pick = %v", picks)
	}
}

func BenchmarkRandomPick2(b *testing.B) {
	s := NewRandom(servers(12), 2, rng.New(1))
	f := flow(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Pick(f)
	}
}

func BenchmarkConsistentHashPick(b *testing.B) {
	s, _ := NewConsistentHash(servers(12), 65537)
	f := flow(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Pick(f)
	}
}
