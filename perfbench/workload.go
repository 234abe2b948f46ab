package main

import (
	"net/netip"
	"time"

	"srlb/internal/agent"
	"srlb/internal/experiments"
	"srlb/internal/feedback"
	"srlb/internal/rng"
	"srlb/internal/testbed"
)

// Fleet shape: a control-plane-scale topology whose VIP index, flow table
// and feedback plane are large enough to matter.
const (
	fleetVIPs      = 1000
	fleetPools     = 16
	serversPerPool = 12
	// fleetZipf is the popularity exponent over VIP ranks. VIP v lives in
	// pool v mod 16, so at 0.6 × aggregate capacity the hottest pool runs
	// at 0.79 and the coolest at 0.54: skewed, but no pool saturates.
	fleetZipf = 0.6
	// huntThreshold is SR4's static acceptance threshold c.
	huntThreshold = 4
	// clients is the number of client source addresses.
	clients = 8
)

// workload is one benchmark input set. Every workload is open loop in
// simulated time: Poisson arrivals with exponential demands of mean
// experiments.MeanDemand, each launched at its scheduled instant whether
// or not earlier queries have finished.
type workload struct {
	name string
	// queries is the number of queries one repetition simulates.
	queries int
	// load is the offered rate as a fraction of aggregate capacity.
	load  float64
	fleet bool
}

var workloads = []workload{
	{
		// Nearly every SYN is accepted at the first candidate and servers
		// are mostly idle: the bare per-packet path (DES, wire codec,
		// netsim, core, vrouter) dominates.
		name:    "light",
		queries: 60000,
		load:    0.2,
	},
	{
		// Full worker pools plus backlog: hunts reach the second
		// candidate, refusals and RSTs appear, and appserver processor
		// sharing and the vrouter refusal path dominate.
		name:    "saturated",
		queries: 60000,
		load:    1.1,
	},
	{
		// The only workload with a large VIP index, feedback ingests and
		// per-VIP sketches; its setup (topology compile) is non-trivial.
		// Clients do not close connections, so flow entries live for the
		// default 60 s idle TTL; a repetition spans about 26 simulated
		// seconds, so the table grows to one entry per query (60k) and
		// sweeps scan it without collecting any.
		name:    "fleet",
		queries: 60000,
		load:    0.6,
		fleet:   true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) pools() int {
	if w.fleet {
		return fleetPools
	}
	return 1
}

func (w workload) vips() int {
	if w.fleet {
		return fleetVIPs
	}
	return 1
}

func (w workload) servers() int { return w.pools() * serversPerPool }

// serverAddr is the address of server i of pool p.
func (w workload) serverAddr(p, i int) netip.Addr {
	if w.fleet {
		return testbed.SharedPoolServerAddr(p, i)
	}
	return testbed.ServerAddr(i)
}

// rate is the offered arrival rate in queries per simulated second.
func (w workload) rate() float64 {
	return w.load * experiments.ClusterConfig{Servers: w.servers()}.TheoreticalCapacity()
}

// inputs is a pre-generated arrival schedule: query i is launched at
// at[i]. It is a pure function of the workload and the seed.
type inputs struct {
	seed    uint64
	at      []time.Duration
	queries []testbed.Query
}

func (w workload) generate(seed uint64) *inputs {
	arrivals := rng.Split(seed, 1)
	demands := rng.Split(seed, 2)
	in := &inputs{
		seed:    seed,
		at:      make([]time.Duration, w.queries),
		queries: make([]testbed.Query, w.queries),
	}
	pickVIP := func() netip.Addr { return testbed.VIP }
	if w.fleet {
		z := rng.NewZipf(rng.Split(seed, 3), fleetVIPs, fleetZipf)
		pickVIP = func() netip.Addr { return testbed.VIPAddr(z.Draw()) }
	}
	var now time.Duration
	for i := range in.at {
		now += rng.ExpRate(arrivals, w.rate())
		in.at[i] = now
		in.queries[i] = testbed.Query{
			ID:     uint64(i),
			VIP:    pickVIP(),
			Demand: rng.Exp(demands, experiments.MeanDemand),
		}
	}
	return in
}

// topology declares the cluster the workload runs on.
func (w workload) topology(seed uint64) testbed.Topology {
	sr4 := func(int) agent.Policy { return agent.NewStatic(huntThreshold) }
	if !w.fleet {
		// The paper's platform: 12 × (32 workers, 2 cores, backlog 128)
		// behind one LB, two random candidates per hunt.
		return testbed.Topology{Seed: seed, Clients: clients, VIPs: []testbed.VIPSpec{{Policy: sr4}}}
	}
	top := testbed.GenerateTopology(testbed.GenSpec{
		Seed:           seed,
		VIPs:           fleetVIPs,
		Pools:          fleetPools,
		ServersPerPool: serversPerPool,
		Clients:        clients,
	})
	for p := range top.Pools {
		top.Pools[p].Policy = sr4
	}
	wll := experiments.WeightedLeastLoadPolicy().Scheme
	for v := range top.VIPs {
		top.VIPs[v].FeedbackScheme = wll
	}
	// Horizon 0: the testbed schedules no publishing of its own; the
	// cluster drives PublishFeedback from its own tick so a traced run
	// can tell feedback work apart from other timers.
	top.Feedback = feedback.Config{Enabled: true}
	return top
}

// cluster is one built testbed wired to the benchmark's arrival
// schedule and outcome recorders.
type cluster struct {
	tb   *testbed.Testbed
	sink *testbed.SketchSink
	in   *inputs
	// rts collects the response time of every completed query in
	// completion order (its backing array is reused across repetitions).
	rts  []time.Duration
	next int
	// launch and tick are the event functions scheduled on the DES; a
	// traced run wraps them to time the benchmark's own closures.
	launch, tick func()
}

func (w workload) build(in *inputs, rts []time.Duration) *cluster {
	tb := testbed.Build(w.topology(in.seed))
	vips := make([]netip.Addr, tb.VIPCount())
	for v := range vips {
		vips[v] = tb.VIPAddrOf(v)
	}
	c := &cluster{tb: tb, sink: testbed.NewSketchSink(vips...), in: in, rts: rts[:0]}
	tb.Gen.Sink = c.sink
	tb.Gen.OnResult = func(res testbed.Result) {
		if res.OK {
			c.rts = append(c.rts, res.RT)
		}
	}
	c.launch = c.launchNext
	c.tick = c.publish
	return c
}

// start schedules the first arrival (and the first feedback tick).
func (c *cluster) start() {
	c.tb.Sim.Schedule(c.in.at[0], c.launch)
	if fb := c.tb.Feedback; fb != nil {
		c.tb.Sim.Schedule(fb.Config().Interval, c.tick)
	}
}

// launchNext issues the next query of the schedule and schedules the one
// after it: one pending arrival at a time, as an open-loop source.
func (c *cluster) launchNext() {
	c.tb.Gen.Launch(c.in.queries[c.next])
	c.next++
	if c.next < len(c.in.at) {
		c.tb.Sim.Schedule(c.in.at[c.next], c.launch)
	}
}

// publish is one feedback-plane tick; ticks stop after the last arrival
// so the simulation drains.
func (c *cluster) publish() {
	c.tb.PublishFeedback()
	interval := c.tb.Feedback.Config().Interval
	if now := c.tb.Sim.Now(); now+interval <= c.in.at[len(c.in.at)-1] {
		c.tb.Sim.Schedule(now+interval, c.tick)
	}
}

// finish runs the simulation to completion and closes out any query
// still pending (none, unless a packet went missing).
func (c *cluster) finish() {
	c.tb.Sim.Run()
	c.tb.Gen.DrainPending()
}
