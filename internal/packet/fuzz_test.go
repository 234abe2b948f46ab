package packet

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net/netip"
	"testing"
	"testing/quick"

	"srlb/internal/ipv6"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// TestParseNeverPanicsOnRandomBytes: the full packet parser must reject —
// never crash on — arbitrary input. A data-plane element parses whatever
// the wire hands it.
func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %d bytes: %v", len(b), r)
			}
		}()
		p, err := Parse(b, true)
		// Either a parse error or a structurally valid packet.
		return err != nil || p != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanicsOnCorruptedValidPackets flips random bits in
// well-formed packets — closer to real wire corruption than pure noise.
func TestParseNeverPanicsOnCorruptedValidPackets(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	base := &Packet{
		IP: ipv6.Header{Src: client, Dst: s1},
		SRH: srv6.MustNew(ipv6.ProtoTCP,
			s1, s2, vip),
		TCP: tcpseg.Segment{
			SrcPort: 40000, DstPort: 80, Flags: tcpseg.FlagSYN,
			Payload: []byte("GET /wiki/index.php?title=Main HTTP/1.1"),
		},
	}
	wire, err := base.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		c := append([]byte(nil), wire...)
		flips := 1 + r.IntN(8)
		for j := 0; j < flips; j++ {
			pos := r.IntN(len(c))
			c[pos] ^= byte(1 << r.IntN(8))
		}
		if r.IntN(4) == 0 {
			c = c[:r.IntN(len(c)+1)] // also truncate sometimes
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("Parse panicked on corrupted packet (iter %d): %v", i, rec)
				}
			}()
			Parse(c, true) //nolint:errcheck // any outcome but a panic is fine
		}()
	}
}

// TestParseExtensionChainBounds: a routing header claiming more segments
// than the buffer holds must error cleanly.
func TestParseExtensionChainBounds(t *testing.T) {
	p := &Packet{
		IP:  ipv6.Header{Src: client, Dst: s1},
		SRH: srv6.MustNew(ipv6.ProtoTCP, s1, vip),
		TCP: tcpseg.Segment{SrcPort: 1, DstPort: 2, Flags: tcpseg.FlagSYN},
	}
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the SRH's Hdr Ext Len beyond the actual payload.
	c := append([]byte(nil), wire...)
	c[ipv6.HeaderLen+1] = 0xff
	if _, err := Parse(c, false); err == nil {
		t.Fatal("oversized ext len accepted")
	}
}

// fuzzSeedPackets are the wire encodings of the packets a hunt exchange
// puts on the LAN, plus one whose SRH is longer than InlineSegments.
func fuzzSeedPackets(t testing.TB) [][]byte {
	tcp := func(flags tcpseg.Flags, payload string) tcpseg.Segment {
		return tcpseg.Segment{SrcPort: 40000, DstPort: 80, Seq: 1, Ack: 2, Flags: flags, Payload: []byte(payload)}
	}
	synack := srv6.MustNew(ipv6.ProtoTCP, s1, lb, client)
	synack.Advance() //nolint:errcheck // SL 2 → 1, as a server emits it
	long := []netip.Addr{s1, s2, s1, s2, s1, s2, vip}
	pkts := []*Packet{
		{IP: ipv6.Header{Src: client, Dst: s1}, SRH: srv6.MustNew(ipv6.ProtoTCP, s1, s2, vip), TCP: tcp(tcpseg.FlagSYN, "\x14")},
		{IP: ipv6.Header{Src: vip, Dst: lb}, SRH: synack, TCP: tcp(tcpseg.FlagSYN|tcpseg.FlagACK, "")},
		{IP: ipv6.Header{Src: client, Dst: s2}, SRH: srv6.MustNew(ipv6.ProtoTCP, s2, vip), TCP: tcp(tcpseg.FlagACK|tcpseg.FlagPSH, "GET /")},
		{IP: ipv6.Header{Src: vip, Dst: client}, TCP: tcp(tcpseg.FlagACK|tcpseg.FlagFIN, "HTTP/1.1 200 OK\r\n\r\n")},
		{IP: ipv6.Header{Src: client, Dst: s1}, SRH: srv6.MustNew(ipv6.ProtoTCP, long...), TCP: tcp(tcpseg.FlagSYN, "")},
	}
	var out [][]byte
	for _, p := range pkts {
		b, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// samePacket compares two parsed packets field by field (the SRH by
// value, not by pointer).
func samePacket(a, b *Packet) bool {
	if a.IP != b.IP || (a.SRH == nil) != (b.SRH == nil) {
		return false
	}
	if a.SRH != nil && (a.SRH.String() != b.SRH.String() || a.SRH.NextHeader != b.SRH.NextHeader ||
		a.SRH.Flags != b.SRH.Flags || a.SRH.Tag != b.SRH.Tag) {
		return false
	}
	at, bt := a.TCP, b.TCP
	return at.SrcPort == bt.SrcPort && at.DstPort == bt.DstPort && at.Seq == bt.Seq &&
		at.Ack == bt.Ack && at.Flags == bt.Flags && at.Window == bt.Window &&
		at.Urgent == bt.Urgent && bytes.Equal(at.Payload, bt.Payload)
}

// FuzzPacketParse: Parse never panics; a verified parse re-marshals to a
// canonical encoding that parses back to the same packet and marshals to
// the same bytes, identical to the input when the input was canonical;
// checksum verification is honoured in both directions; and ParseInto
// into a recycled Packet that last held a shorter, longer, spilled or
// absent SRH decodes exactly what a parse into a zero Packet does.
func FuzzPacketParse(f *testing.F) {
	seeds := fuzzSeedPackets(f)
	for _, b := range seeds {
		f.Add(b, true)
	}
	// One recycled delivery Packet, refilled before every parse with a
	// seed so that it last held each SRH shape in turn.
	recycled := new(Packet)
	f.Fuzz(func(t *testing.T, b []byte, verify bool) {
		var fresh Packet
		err := ParseInto(&fresh, b, verify)
		for i, seed := range seeds {
			p := recycled
			if serr := ParseInto(p, seed, true); serr != nil {
				t.Fatal(serr)
			}
			rerr := ParseInto(p, b, verify)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("recycled packet %d: error %v, zero packet: %v", i, rerr, err)
			}
			if err == nil && !samePacket(p, &fresh) {
				t.Fatalf("recycled packet %d parsed %v, zero packet %v", i, p, &fresh)
			}
		}
		if err != nil {
			if verify && errors.Is(err, tcpseg.ErrBadChecksum) {
				if ParseInto(&fresh, b, false) != nil {
					t.Fatal("checksum error for a packet that does not parse unverified")
				}
			}
			return
		}
		if !verify {
			if verr := ParseInto(new(Packet), b, true); verr != nil && !errors.Is(verr, tcpseg.ErrBadChecksum) {
				t.Fatalf("verification failed other than on the checksum: %v", verr)
			}
			return
		}
		// Marshal normalizes what it owns (payload length, next-header
		// chain, a zero hop limit) in place; compare against that.
		norm := fresh.Clone()
		wire, err := norm.Marshal(nil)
		if err != nil {
			if !errors.Is(err, ipv6.ErrNotV6Addr) {
				t.Fatalf("re-marshal: %v", err)
			}
			return // a v4-mapped address: parses, but is not ours to send
		}
		again, err := Parse(wire, true)
		if err != nil {
			t.Fatalf("re-marshaled packet does not parse: %v", err)
		}
		if !samePacket(again, norm) {
			t.Fatalf("round trip changed the packet:\n in  %v\n out %v", norm, again)
		}
		if wire2, err := again.Marshal(nil); err != nil || !bytes.Equal(wire, wire2) {
			t.Fatalf("Marshal∘Parse not a fixed point (%v)", err)
		}
		tcpOff := len(wire) - fresh.TCP.WireLen()
		canonical := fresh.IP.HopLimit != 0 && b[tcpOff+12] == tcpseg.HeaderLen/4<<4
		if canonical && !bytes.Equal(wire, b[:len(wire)]) {
			t.Fatalf("canonical input not reproduced:\n in  %x\n out %x", b[:len(wire)], wire)
		}
		// Any corruption of the checksum field must be caught.
		bad := bytes.Clone(wire)
		bad[tcpOff+16] ^= 0x01
		if _, err := Parse(bad, true); !errors.Is(err, tcpseg.ErrBadChecksum) {
			t.Fatalf("corrupted checksum accepted (%v)", err)
		}
	})
}
