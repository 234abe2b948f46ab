// Package livenet runs the SRLB data plane in real time. It is not a
// second implementation of the protocol: it runs the simulator's own
// core.LoadBalancer and vrouter.Router, each behind one mutex, on a
// netsim.Port whose clock is wall time, whose Send puts the same
// byte-accurate frames on an in-memory LAN, and whose timers take the
// mutex. It adds only what the simulator models differently: the LAN
// (its drops counted in Stats), an I/O-bound worker pool standing in for
// the application, and a client running the testbed generator's handshake.
package livenet

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"srlb/internal/agent"
	"srlb/internal/appserver"
	"srlb/internal/core"
	"srlb/internal/ipv6"
	"srlb/internal/netsim"
	"srlb/internal/packet"
	"srlb/internal/tcpseg"
	"srlb/internal/vrouter"
)

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("livenet: network closed")

// QueueLen is each address's delivery queue; a full one tail-drops.
const QueueLen = 1024

// Stats counts the packets the LAN dropped.
type Stats struct {
	Unroutable  uint64 // no node attached at the destination
	ParseErrors uint64 // the frame failed to parse on delivery
	QueueFull   uint64 // tail drops at a full delivery queue
}

// Network is an in-memory bridged LAN. Packets are serialized on Send and
// re-parsed before delivery, exactly like the simulated wire.
type Network struct {
	start  time.Time
	mu     sync.Mutex
	nodes  map[netip.Addr]chan []byte
	closed bool
	stats  Stats
	wg     sync.WaitGroup
}

// NewNetwork creates an empty LAN.
func NewNetwork() *Network {
	return &Network{start: time.Now(), nodes: make(map[netip.Addr]chan []byte)}
}

// Attach registers handler under the given addresses, each served by one
// delivery goroutine with a QueueLen-packet queue.
func (n *Network) Attach(handler func(pkt *packet.Packet), addrs ...netip.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		panic(ErrClosed)
	}
	for _, a := range addrs {
		if _, dup := n.nodes[a]; dup {
			panic(fmt.Sprintf("livenet: address %v attached twice", a))
		}
		ch := make(chan []byte, QueueLen)
		n.nodes[a] = ch
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for wire := range ch {
				if pkt, err := packet.Parse(wire, false); err == nil {
					handler(pkt)
				} else {
					n.mu.Lock()
					n.stats.ParseErrors++
					n.mu.Unlock()
				}
			}
		}()
	}
}

// Send serializes pkt and queues it for the node at its IPv6
// destination, from any goroutine. It never blocks: an unroutable
// destination or a full queue drops the packet and counts it in Stats. A
// packet that fails to marshal is a bug in its sender and panics.
func (n *Network) Send(pkt *packet.Packet) error {
	wire, err := pkt.Marshal(nil)
	if err != nil {
		panic(fmt.Sprintf("livenet: marshal failed: %v", err))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if ch, ok := n.nodes[pkt.IP.Dst]; !ok {
		n.stats.Unroutable++
	} else {
		select {
		case ch <- wire:
		default:
			n.stats.QueueFull++
		}
	}
	return nil
}

// Stats returns the drop counters so far.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close tears the LAN down and waits for delivery goroutines to drain.
// Timers armed before Close still fire; whatever they send is refused.
func (n *Network) Close() {
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		for _, ch := range n.nodes {
			close(ch)
		}
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// node is one protocol element's netsim.Port: every delivery and timer
// runs under mu, so the element stays single-threaded as in the simulator.
type node struct {
	net *Network
	mu  sync.Mutex
}

// Now implements netsim.Port: wall time since the network started.
func (p *node) Now() time.Duration { return time.Since(p.net.start) }

// Send implements netsim.Port; drops are counted by the network.
func (p *node) Send(pkt *packet.Packet) { p.net.Send(pkt) }

// ScheduleAfter implements netsim.Port: a timer running fn under the lock.
func (p *node) ScheduleAfter(d time.Duration, fn func()) { time.AfterFunc(d, func() { p.do(fn) }) }

func (p *node) do(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn()
}

// attach binds h to addrs on the LAN, handling under the node lock.
func (p *node) attach(h netsim.Node, addrs ...netip.Addr) {
	p.net.Attach(func(pkt *packet.Packet) { p.do(func() { h.Handle(pkt) }) }, addrs...)
}

// LoadBalancer is a core.LoadBalancer running on the live LAN.
type LoadBalancer struct {
	port node
	lb   *core.LoadBalancer
}

// NewLoadBalancer builds a core.LoadBalancer attached at all its Addrs.
func NewLoadBalancer(net *Network, cfg core.Config) *LoadBalancer {
	l := &LoadBalancer{port: node{net: net}}
	l.lb = core.New(&l.port, cfg)
	l.port.attach(l.lb, l.lb.Addrs()...)
	return l
}

// Inspect runs fn on the balancer, serialized with its packet handling;
// fn must not block.
func (l *LoadBalancer) Inspect(fn func(*core.LoadBalancer)) { l.port.do(func() { fn(l.lb) }) }

// ServerConfig assembles a live server: a vrouter.Router (Addr, VIPs, LB,
// Policy, Demand) in front of a pool of Workers, all required.
type ServerConfig struct {
	Addr, LB netip.Addr
	VIPs     []netip.Addr
	Workers  int
	Policy   agent.Policy
	Demand   vrouter.DemandFn
}

// Server is a vrouter.Router on the live LAN in front of a worker pool,
// the Server itself: an admitted request holds a worker for its service
// time; one that finds every worker busy is refused with an RST.
type Server struct {
	port          node
	workers, busy int
	admitted      uint64
}

// NewServer builds a vrouter.Router over the pool, attached at cfg.Addr.
func NewServer(net *Network, cfg ServerConfig) *Server {
	s := &Server{port: node{net: net}, workers: cfg.Workers}
	r := vrouter.New(&s.port, vrouter.Config{
		Addr: cfg.Addr, VIPs: cfg.VIPs, LB: cfg.LB, Policy: cfg.Policy, Server: s, Demand: cfg.Demand,
	})
	s.port.attach(r, cfg.Addr)
	return s
}

// Accepted returns how many connections the pool admitted.
func (s *Server) Accepted() (n uint64) {
	s.port.do(func() { n = s.admitted })
	return n
}

// BusyWorkers, TotalWorkers and Offer make the pool the router's
// vrouter.App; only the router may call them, under the node lock.
func (s *Server) BusyWorkers() int  { return s.busy }
func (s *Server) TotalWorkers() int { return s.workers }

func (s *Server) Offer(demand time.Duration, onDone func()) appserver.Verdict {
	if s.busy >= s.workers {
		return appserver.Rejected
	}
	s.busy++
	s.admitted++
	s.port.ScheduleAfter(demand, func() {
		s.busy--
		onDone()
	})
	return appserver.Admitted
}

// Client issues queries to one VIP and streams each one's Outcome.
type Client struct {
	addr, vip netip.Addr
	net       *Network
	done      chan Outcome
	mu        sync.Mutex
	nextPort  uint16
	pending   map[packet.FlowKey]pendingQuery
}

type pendingQuery struct {
	sent    time.Time
	payload []byte
}

// Outcome is one completed live query.
type Outcome struct {
	RT      time.Duration
	Refused bool
}

// NewClient attaches a client. Its stream buffers 4096 outcomes, so a
// caller may launch a burst before it starts reading.
func NewClient(net *Network, addr, vip netip.Addr) *Client {
	c := &Client{addr: addr, vip: vip, net: net, done: make(chan Outcome, 4096),
		nextPort: 1024, pending: make(map[packet.FlowKey]pendingQuery)}
	net.Attach(c.handle, addr)
	return c
}

// Results exposes the completion stream.
func (c *Client) Results() <-chan Outcome { return c.done }

// Launch opens one connection for a request. As in the simulator's
// generator, the SYN carries the request (the router prices it at
// accept time) and so does the ACK that completes the handshake.
func (c *Client) Launch(payload []byte) {
	c.mu.Lock()
	flow := packet.FlowKey{Src: c.addr, Dst: c.vip, SrcPort: c.nextPort, DstPort: 80}
	c.nextPort = max(c.nextPort+1, 1024) // skip the well-known ports on wrap
	c.pending[flow] = pendingQuery{sent: time.Now(), payload: payload}
	c.mu.Unlock()
	c.send(flow, tcpseg.Segment{Flags: tcpseg.FlagSYN, Payload: payload})
}

func (c *Client) send(flow packet.FlowKey, seg tcpseg.Segment) {
	seg.SrcPort, seg.DstPort = flow.SrcPort, flow.DstPort
	c.net.Send(&packet.Packet{IP: ipv6.Header{Src: flow.Src, Dst: flow.Dst}, TCP: seg})
}

// handle answers a SYN-ACK with the request and ends the query on the
// response or an RST.
func (c *Client) handle(pkt *packet.Packet) {
	flow := pkt.Flow().Reverse()
	end := !pkt.IsSYNACK() && (pkt.TCP.Flags.Has(tcpseg.FlagRST) || len(pkt.TCP.Payload) > 0)
	c.mu.Lock()
	pq, ok := c.pending[flow]
	if ok && end {
		delete(c.pending, flow)
	}
	c.mu.Unlock()
	switch {
	case ok && end:
		c.done <- Outcome{RT: time.Since(pq.sent), Refused: pkt.TCP.Flags.Has(tcpseg.FlagRST)}
	case ok && pkt.IsSYNACK():
		c.send(flow, tcpseg.Segment{Seq: 1, Ack: pkt.TCP.Seq + 1, Flags: tcpseg.FlagACK | tcpseg.FlagPSH, Payload: pq.payload})
	}
}
