// Package packet composes full SRLB data-plane packets:
// IPv6 fixed header, optional Segment Routing Header, and a TCP segment.
// Packets travel the simulated network as real bytes and are re-parsed at
// every hop, so the encode/decode path here is exactly what a software
// router (the paper uses VPP) would execute.
//
// # SRH storage
//
// Like a VPP buffer, which carries its routing header inline, a Packet
// owns fixed-capacity SRH storage: ParseInto, SetSRH and Clone decode or
// write the header there and point Packet.SRH at it, so a hop through
// the simulated network costs no heap allocation for lists of up to
// InlineSegments segments (longer lists spill to the heap). The flip
// side is aliasing: pkt.SRH and its Segments belong to pkt. A node that
// receives a recycled delivery Packet (netsim) may use them only until
// its Handle returns; only Clone yields a copy that may be kept.
package packet

import (
	"errors"
	"fmt"
	"net/netip"

	"srlb/internal/ipv6"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// DefaultHopLimit is used for locally originated packets.
const DefaultHopLimit = 64

// ErrNotTCP is returned when the chain does not terminate in TCP.
var ErrNotTCP = errors.New("packet: upper layer is not TCP")

// InlineSegments is the SRH segment-list capacity a Packet carries
// inline: a hunt over up to four candidates plus the VIP (the longest
// list any scheme in this repository builds). SYN-ACKs carry three
// segments and steered packets two.
const InlineSegments = 5

// Packet is a parsed (or to-be-marshaled) IPv6[+SRH]+TCP packet.
type Packet struct {
	IP  ipv6.Header
	SRH *srv6.SRH // nil when no routing header present
	TCP tcpseg.Segment

	// srh and segs are the packet's own SRH storage; SRH points at srh
	// after ParseInto, SetSRH or Clone.
	srh  srv6.SRH
	segs [InlineSegments]netip.Addr
}

// ownSRH resets the packet's SRH storage to an empty list backed by the
// inline array and returns it (not yet installed as p.SRH).
func (p *Packet) ownSRH() *srv6.SRH {
	p.srh = srv6.SRH{Segments: p.segs[:0]}
	return &p.srh
}

// SetSRH installs an SRH routing the packet through path and then to
// final (see srv6.SRH.Fill), written into the packet's own storage, and
// points p.SRH at it. The first segment is active; the caller sets the
// IPv6 destination. path must not alias p.SRH.Segments.
func (p *Packet) SetSRH(path []netip.Addr, final netip.Addr) (*srv6.SRH, error) {
	h := p.ownSRH()
	if err := h.Fill(ipv6.ProtoTCP, path, final); err != nil {
		return nil, err
	}
	p.SRH = h
	return h, nil
}

// FlowKey identifies a TCP connection by its 4-tuple as seen by the load
// balancer (client address/port, VIP address/port).
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
}

// String renders the key as "src.port->dst.port".
func (k FlowKey) String() string {
	return fmt.Sprintf("[%v]:%d->[%v]:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// Flow returns the packet's flow key using the *logical* endpoints: when
// an SRH is present, the logical destination is the final segment (the
// VIP), not the in-flight IPv6 destination (which points at the active
// segment). This is how the LB and servers key their flow state.
func (p *Packet) Flow() FlowKey {
	dst := p.IP.Dst
	if p.SRH != nil {
		if final, err := p.SRH.Final(); err == nil {
			dst = final
		}
	}
	return FlowKey{Src: p.IP.Src, Dst: dst, SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort}
}

// IsSYN reports whether this is an initial SYN (SYN set, ACK clear) — the
// packet that triggers Service Hunting at the load balancer.
func (p *Packet) IsSYN() bool {
	return p.TCP.Flags.Has(tcpseg.FlagSYN) && !p.TCP.Flags.Has(tcpseg.FlagACK)
}

// IsSYNACK reports whether this is a connection-acceptance packet.
func (p *Packet) IsSYNACK() bool {
	return p.TCP.Flags.Has(tcpseg.FlagSYN | tcpseg.FlagACK)
}

// Marshal encodes the full packet to bytes, fixing up PayloadLen and the
// TCP checksum. The checksum is computed over the logical endpoints
// (IPv6 source and final-segment destination), mirroring how SR-aware
// stacks compute upper-layer checksums against the final destination
// (RFC 8200 §8.1).
func (p *Packet) Marshal(dst []byte) ([]byte, error) {
	ulDst := p.IP.Dst
	tcpLen := p.TCP.WireLen()
	if p.SRH != nil {
		p.IP.NextHeader = ipv6.ProtoRouting
		p.SRH.NextHeader = ipv6.ProtoTCP
		p.IP.PayloadLen = uint16(p.SRH.WireLen() + tcpLen)
		if final, err := p.SRH.Final(); err == nil {
			ulDst = final
		}
	} else {
		p.IP.NextHeader = ipv6.ProtoTCP
		p.IP.PayloadLen = uint16(tcpLen)
	}
	if p.IP.HopLimit == 0 {
		p.IP.HopLimit = DefaultHopLimit
	}
	out, err := p.IP.Marshal(dst)
	if err != nil {
		return nil, err
	}
	if p.SRH != nil {
		out, err = p.SRH.Marshal(out)
		if err != nil {
			return nil, err
		}
	}
	return p.TCP.Marshal(out, p.IP.Src, ulDst)
}

// Parse decodes a full packet. When verifyChecksum is true, the TCP
// checksum is validated against the logical endpoints.
func Parse(b []byte, verifyChecksum bool) (*Packet, error) {
	p := new(Packet)
	if err := ParseInto(p, b, verifyChecksum); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseInto is Parse into a caller-provided Packet, overwriting every
// field — the allocation-free path for callers (netsim delivery) that
// recycle Packet structs. The SRH is decoded into p's own storage, so
// whatever p.SRH pointed at before is not touched. On error p is left
// in an undefined state.
func ParseInto(p *Packet, b []byte, verifyChecksum bool) error {
	p.SRH = nil
	h, n, err := ipv6.Parse(b)
	if err != nil {
		return err
	}
	p.IP = h
	rest := b[n:]
	if int(h.PayloadLen) > len(rest) {
		return fmt.Errorf("packet: payload length %d exceeds buffer %d", h.PayloadLen, len(rest))
	}
	rest = rest[:h.PayloadLen]
	next := h.NextHeader
	if next == ipv6.ProtoRouting {
		srh := p.ownSRH()
		consumed, err := srv6.ParseInto(srh, rest)
		if err != nil {
			return err
		}
		p.SRH = srh
		rest = rest[consumed:]
		next = srh.NextHeader
	}
	if next != ipv6.ProtoTCP {
		return fmt.Errorf("%w: next header %d", ErrNotTCP, next)
	}
	ulDst := p.IP.Dst
	if p.SRH != nil {
		if final, err := p.SRH.Final(); err == nil {
			ulDst = final
		}
	}
	seg, err := tcpseg.Parse(rest, p.IP.Src, ulDst, verifyChecksum)
	if err != nil {
		return err
	}
	p.TCP = seg
	return nil
}

// Clone deep-copies the packet (segment list and payload included) so a
// hop can mutate its copy without aliasing. The copy's SRH lives in the
// copy's own storage.
func (p *Packet) Clone() *Packet {
	q := &Packet{IP: p.IP, TCP: p.TCP}
	if p.SRH != nil {
		h := q.ownSRH()
		segs := append(h.Segments, p.SRH.Segments...)
		*h = *p.SRH
		h.Segments = segs
		q.SRH = h
	}
	q.TCP.Payload = append([]byte(nil), p.TCP.Payload...)
	return q
}

// String gives a compact one-line rendering for traces and debugging.
func (p *Packet) String() string {
	srh := ""
	if p.SRH != nil {
		srh = " " + p.SRH.String()
	}
	return fmt.Sprintf("[%v]->[%v] %s%s len=%d",
		p.IP.Src, p.IP.Dst, p.TCP.Flags, srh, len(p.TCP.Payload))
}
