// Package selection implements the load balancer's server-selection
// policies (§II-B of the paper): given a new flow, produce the ordered
// list of candidate servers to place in the SR header.
//
// The paper's experiments use two servers "chosen at random from among all
// servers hosting a given application instance" (citing Mitzenmacher's
// power-of-two-choices result that more than two candidates has decreasing
// marginal benefit); §II-B also names consistent hashing as an alternative
// scheme, which is provided here via the Maglev table.
package selection

import (
	"fmt"
	"math/rand/v2"
	"net/netip"

	"srlb/internal/chash"
	"srlb/internal/packet"
)

// Scheme produces candidate lists for new flows. Implementations are not
// safe for concurrent use (the simulator is single-threaded; the live
// runtime serializes through the LB lock).
type Scheme interface {
	// Pick returns the ordered candidate servers for the flow. The last
	// candidate is the "must accept" penultimate segment. The slice may
	// be scheme-owned scratch: it is valid only until the next Pick on
	// the same scheme, so a caller that keeps candidates copies them.
	// Callers may reorder it in place (WeightedLeastLoad re-ranks the
	// slice its inner Random returns).
	Pick(flow packet.FlowKey) []netip.Addr
	// Name returns the scheme's display name.
	Name() string
}

// Random picks K distinct servers uniformly at random — the paper's
// scheme, with K=2 as evaluated.
type Random struct {
	k       int
	servers []netip.Addr
	rng     *rand.Rand
	// out is Pick's result scratch, length k. It is never a subslice of
	// servers: callers may reorder the result, and that must not touch
	// the shuffle state.
	out []netip.Addr
}

// NewRandom builds a random scheme over the given servers. It panics when
// k < 1 or fewer than k servers exist: the testbed topology is static and
// this is a construction-time error.
func NewRandom(servers []netip.Addr, k int, rng *rand.Rand) *Random {
	if k < 1 {
		panic(fmt.Sprintf("selection: k must be ≥ 1, got %d", k))
	}
	if len(servers) < k {
		panic(fmt.Sprintf("selection: need at least %d servers, have %d", k, len(servers)))
	}
	return &Random{
		k:       k,
		servers: append([]netip.Addr(nil), servers...),
		rng:     rng,
		out:     make([]netip.Addr, k),
	}
}

// Pick implements Scheme via a partial Fisher–Yates shuffle: O(k) time,
// k distinct servers, each k-subset ordered uniformly. The permutation is
// left in place between calls, which does not bias later draws (a partial
// shuffle of any fixed permutation of the set is still uniform). The
// result is the scheme's scratch slice: allocation-free, and valid until
// the next Pick.
func (r *Random) Pick(packet.FlowKey) []netip.Addr {
	n := len(r.servers)
	for i := 0; i < r.k; i++ {
		j := i + r.rng.IntN(n-i)
		r.servers[i], r.servers[j] = r.servers[j], r.servers[i]
		r.out[i] = r.servers[i]
	}
	return r.out
}

// Name implements Scheme.
func (r *Random) Name() string {
	if r.k == 1 {
		return "random1"
	}
	return fmt.Sprintf("random%d", r.k)
}

// RoundRobin cycles deterministically through the servers, emitting K
// consecutive servers per flow. Deterministic and stateless across
// restarts given the same arrival order; mainly a comparison baseline.
type RoundRobin struct {
	k       int
	servers []netip.Addr
	next    int
}

// NewRoundRobin builds a round-robin scheme.
func NewRoundRobin(servers []netip.Addr, k int) *RoundRobin {
	if k < 1 || len(servers) < k {
		panic("selection: bad round-robin parameters")
	}
	return &RoundRobin{k: k, servers: append([]netip.Addr(nil), servers...)}
}

// Pick implements Scheme.
func (r *RoundRobin) Pick(packet.FlowKey) []netip.Addr {
	out := make([]netip.Addr, r.k)
	for i := range out {
		out[i] = r.servers[(r.next+i)%len(r.servers)]
	}
	r.next = (r.next + 1) % len(r.servers)
	return out
}

// Name implements Scheme.
func (r *RoundRobin) Name() string { return fmt.Sprintf("roundrobin%d", r.k) }

// ConsistentHash picks two candidates from a Maglev table keyed on the
// flow 4-tuple, so the same client flow always hunts the same pair —
// useful when multiple LB instances must agree without shared state
// (the Maglev/Ananta deployment model in the paper's related work).
type ConsistentHash struct {
	table  *chash.Maglev
	byName map[string]netip.Addr
}

// NewConsistentHash builds the scheme over the servers. The Maglev
// table is interned by (servers, tableSize): thousands of VIPs sharing
// one pool populate a single shared table instead of one each, keeping
// control-plane construction O(pools), not O(VIPs).
func NewConsistentHash(servers []netip.Addr, tableSize int) (*ConsistentHash, error) {
	names := make([]string, len(servers))
	byName := make(map[string]netip.Addr, len(servers))
	for i, s := range servers {
		names[i] = s.String()
		byName[names[i]] = s
	}
	m, err := chash.SharedMaglev(names, tableSize)
	if err != nil {
		return nil, err
	}
	return &ConsistentHash{table: m, byName: byName}, nil
}

// Pick implements Scheme.
func (c *ConsistentHash) Pick(flow packet.FlowKey) []netip.Addr {
	a, b := c.table.Lookup2(flow.String())
	if a == b {
		return []netip.Addr{c.byName[a]}
	}
	return []netip.Addr{c.byName[a], c.byName[b]}
}

// Name implements Scheme.
func (c *ConsistentHash) Name() string { return "chash2" }

// Interface compliance checks.
var (
	_ Scheme = (*Random)(nil)
	_ Scheme = (*RoundRobin)(nil)
	_ Scheme = (*ConsistentHash)(nil)
)
