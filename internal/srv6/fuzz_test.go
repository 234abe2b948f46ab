package srv6

import (
	"bytes"
	"errors"
	"net/netip"
	"slices"
	"testing"

	"srlb/internal/ipv6"
)

// fuzzSeedSRHs are the wire encodings of every SRH shape the simulator
// builds, plus one longer than a packet's inline storage.
func fuzzSeedSRHs(t testing.TB) [][]byte {
	long := []netip.Addr{s1, s2, lb, s1, s2, lb, vip}
	synack := MustNew(ipv6.ProtoTCP, s1, lb, vip)
	synack.Advance() //nolint:errcheck // SL 2 → 1, as a server emits it
	var out [][]byte
	for _, h := range []*SRH{
		MustNew(ipv6.ProtoTCP, s1, s2, vip), // 3-segment hunt SYN
		synack,                              // 3-segment SYN-ACK
		MustNew(ipv6.ProtoTCP, s1, vip),     // 2-segment steered packet
		MustNew(ipv6.ProtoTCP, long...),     // spills past inline storage
	} {
		b, err := h.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// sameSRH compares every field, the segment list element-wise.
func sameSRH(a, b *SRH) bool {
	if a.NextHeader != b.NextHeader || a.SegmentsLeft != b.SegmentsLeft ||
		a.Flags != b.Flags || a.Tag != b.Tag || len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			return false
		}
	}
	return true
}

// FuzzSRHParse: Parse never panics; whatever it accepts re-marshals to
// the identical bytes (or is refused only for a segment that is not a
// plain IPv6 address); and ParseInto into recycled storage — shorter,
// equal, longer or absent — decodes exactly what a fresh Parse does,
// while a failed ParseInto leaves its target untouched.
func FuzzSRHParse(f *testing.F) {
	for _, b := range fuzzSeedSRHs(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, n, err := Parse(b)
		for _, capacity := range []int{0, 1, 3, 5, 8} {
			prev := &SRH{NextHeader: 99, SegmentsLeft: 1, Flags: 7, Tag: 7, Segments: make([]netip.Addr, 2, max(capacity, 2))}
			prev.Segments[0], prev.Segments[1] = lb, s2
			if capacity == 0 {
				prev.Segments = nil
			}
			snapshot := *prev
			snapshot.Segments = slices.Clone(prev.Segments)
			m, rerr := ParseInto(prev, b)
			if (rerr == nil) != (err == nil) || m != n {
				t.Fatalf("cap %d: ParseInto (%d, %v) disagrees with Parse (%d, %v)", capacity, m, rerr, n, err)
			}
			if err != nil {
				if !sameSRH(prev, &snapshot) {
					t.Fatalf("cap %d: failed ParseInto modified its target: %v", capacity, prev)
				}
				continue
			}
			if !sameSRH(prev, h) {
				t.Fatalf("cap %d: recycled parse %v, fresh parse %v", capacity, prev, h)
			}
		}
		if err != nil {
			return
		}
		if n != h.WireLen() || n > len(b) {
			t.Fatalf("consumed %d bytes, wire length %d, input %d", n, h.WireLen(), len(b))
		}
		out, err := h.Marshal(nil)
		if err != nil {
			if !errors.Is(err, ipv6.ErrNotV6Addr) {
				t.Fatalf("re-marshal: %v", err)
			}
			for _, s := range h.Segments {
				if ipv6.CheckAddr(s) != nil {
					return // a v4-mapped segment: unencodable, as documented
				}
			}
			t.Fatalf("re-marshal refused a list of plain IPv6 segments: %v", err)
		}
		if !bytes.Equal(out, b[:n]) {
			t.Fatalf("Marshal∘Parse not identity:\n in  %x\n out %x", b[:n], out)
		}
	})
}
