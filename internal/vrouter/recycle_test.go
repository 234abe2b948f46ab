package vrouter

import (
	"testing"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/ipv6"
	"srlb/internal/packet"
	"srlb/internal/srv6"
	"srlb/internal/tcpseg"
)

// synFor is huntSYN on a chosen client port.
func synFor(port uint16, demandMs byte) *packet.Packet {
	p := huntSYN(demandMs)
	p.TCP.SrcPort = port
	return p
}

// requestFor is the steered ACK+request the LB would relay for port.
func requestFor(port uint16, demandMs byte) *packet.Packet {
	return &packet.Packet{
		IP:  ipv6.Header{Src: client, Dst: sAddr1},
		SRH: srv6.MustNew(ipv6.ProtoTCP, sAddr1, vip),
		TCP: tcpseg.Segment{
			SrcPort: port, DstPort: 80, Seq: 1, Ack: 2,
			Flags: tcpseg.FlagACK | tcpseg.FlagPSH, Payload: []byte{demandMs},
		},
	}
}

func flowOf(port uint16) packet.FlowKey {
	return packet.FlowKey{Src: client, Dst: vip, SrcPort: port, DstPort: 80}
}

// TestConnRecycledAfterLinger: a conn returns to the free list only when
// its linger expires, and the next connection reuses it end to end.
func TestConnRecycledAfterLinger(t *testing.T) {
	g := newRig(t, agent.Always{}, nil, appserver.Default())
	g.net.Send(synFor(40000, 5))
	g.net.Send(requestFor(40000, 5))
	g.sim.RunUntil(time.Millisecond)
	first := g.r1.conns[flowOf(40000)]
	if first == nil {
		t.Fatal("connection not tracked")
	}
	g.sim.RunUntil(CloseLinger / 2)
	if len(g.toCli) != 1 || g.r1.freeConn != nil {
		t.Fatalf("mid-linger: %d responses, free list %p", len(g.toCli), g.r1.freeConn)
	}
	g.sim.Run()
	if g.r1.OpenConns() != 0 || g.r1.freeConn != first {
		t.Fatalf("after linger: %d open conns, free list %p, want %p", g.r1.OpenConns(), g.r1.freeConn, first)
	}
	g.net.Send(synFor(40001, 5))
	g.net.Send(requestFor(40001, 5))
	g.sim.RunUntil(g.sim.Now() + time.Millisecond)
	if g.r1.conns[flowOf(40001)] != first {
		t.Fatal("next connection did not reuse the recycled conn")
	}
	g.sim.Run()
	if len(g.toCli) != 2 || g.toCli[1].TCP.DstPort != 40001 {
		t.Fatalf("client received %d packets, want the second response on port 40001", len(g.toCli))
	}
}

// TestLateCompletionDoesNotAnswerRecycledConn: if a conn is reclaimed
// while its server still holds the request — here the server has failed
// and the conn is expired early — the request's eventual completion must
// not answer the connection that reuses the conn. Only that
// connection's own completion may.
func TestLateCompletionDoesNotAnswerRecycledConn(t *testing.T) {
	g := newRig(t, agent.Always{}, nil, appserver.Default())
	g.net.Send(synFor(40000, 20)) // completes at ≈20 ms
	g.sim.RunUntil(time.Millisecond)
	stale := g.r1.conns[flowOf(40000)]
	g.r1.SetDown(true)
	g.r1.expire(stale)
	g.r1.SetDown(false)

	g.net.Send(synFor(40001, 50)) // completes at ≈51 ms
	g.net.Send(requestFor(40001, 50))
	g.sim.RunUntil(2 * time.Millisecond)
	if g.r1.conns[flowOf(40001)] != stale {
		t.Fatal("second connection did not reuse the reclaimed conn")
	}
	var answeredAt time.Duration
	for g.sim.Step() {
		if len(g.toCli) > 0 && answeredAt == 0 {
			answeredAt = g.sim.Now()
		}
	}
	if answeredAt < 50*time.Millisecond {
		t.Fatalf("reused conn answered at %v, before its own 50 ms of service", answeredAt)
	}
	if got := g.r1.Counts.Get("stale_completion"); got != 1 {
		t.Errorf("stale_completion = %d, want 1", got)
	}
	if len(g.toCli) != 1 {
		t.Fatalf("client received %d packets, want one response", len(g.toCli))
	}
	if resp := g.toCli[0]; resp.TCP.DstPort != 40001 || g.r1.Counts.Get("responses_tx") != 1 {
		t.Fatalf("response %v, responses_tx %d", resp, g.r1.Counts.Get("responses_tx"))
	}
	if st := g.s1.Stats(); st.Completed != 2 {
		t.Fatalf("server completed %d requests, want 2", st.Completed)
	}
}
