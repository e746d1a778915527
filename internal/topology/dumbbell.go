// Package topology wires simulated TCP flows into the paper's dumbbell
// topology: N senders share one bottleneck link (with a configurable
// queue discipline — DropTail, RED, SFQ, or TAQ) toward N receivers;
// all traffic is one-way data with uncongested, lossless ACK return
// paths, exactly the §2.3 setup.
package topology

import (
	"fmt"

	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/tfrc"
)

// QueueKind selects the bottleneck discipline.
type QueueKind string

// Supported disciplines.
const (
	DropTail QueueKind = "droptail"
	RED      QueueKind = "red"
	SFQ      QueueKind = "sfq"
	TAQ      QueueKind = "taq"
)

// Config describes a dumbbell scenario.
type Config struct {
	// Seed makes the run reproducible.
	Seed int64
	// Bandwidth is the bottleneck capacity.
	Bandwidth link.Bps
	// PropRTT is the base propagation round-trip time (paper: 200 ms).
	PropRTT sim.Time
	// RTTJitter spreads per-flow RTTs uniformly within ±jitter
	// fraction of PropRTT (0 = identical RTTs).
	RTTJitter float64
	// BufferPackets is the bottleneck buffer size; 0 means one
	// PropRTT's worth of packets at Bandwidth (the paper's default).
	BufferPackets int
	// Queue picks the discipline (default DropTail).
	Queue QueueKind
	// TCP is the endpoint configuration (zero value → tcp.DefaultConfig).
	TCP tcp.Config
	// TAQ optionally overrides the TAQ middlebox configuration; nil
	// uses core.DefaultConfig(Bandwidth, BufferPackets).
	TAQ *core.Config
	// TAQShards is how many flow-hash-partitioned shards the middlebox
	// runs (one shared admission controller and loss window); 0 means
	// 1. Only meaningful with Queue == TAQ.
	TAQShards int
	// SFQBuckets sets the SFQ bucket count (default 64).
	SFQBuckets int
	// SliceWidth is the metrics slice width (default 20 s, §2.3).
	SliceWidth sim.Time
	// ExternalLoss drops each packet after the bottleneck with this
	// probability, modeling overlay cross-traffic losses beyond the
	// middlebox's control (the §4.4 OverQoS discussion: TAQ assumes a
	// low-loss underlay; this knob measures its sensitivity).
	ExternalLoss float64
	// AccessJitter adds a uniform random delay in [0, AccessJitter)
	// to each packet's access path, breaking the deterministic
	// ack-clock phase effects that otherwise let a winner flow keep a
	// droptail queue exactly full forever (the ns2 "overhead_"
	// randomization; Floyd & Jacobson's phase-effect fix). Default
	// 4 ms; set negative to disable.
	AccessJitter sim.Time
	// TwoWayObservation routes ack-path packets past the TAQ
	// middlebox for observation (§3.3's conventional two-way mode,
	// which makes RTT estimation "relatively easy"); without it TAQ
	// falls back to the one-way SYN/burst heuristics.
	TwoWayObservation bool
}

func (c *Config) fillDefaults() {
	if c.Bandwidth == 0 {
		c.Bandwidth = 1000 * link.Kbps
	}
	if c.PropRTT == 0 {
		c.PropRTT = 200 * sim.Millisecond
	}
	if c.TCP.MSS == 0 {
		c.TCP = tcp.DefaultConfig()
	}
	if c.BufferPackets == 0 {
		bdp := float64(c.Bandwidth) * c.PropRTT.Seconds() / 8 / float64(c.TCP.MSS)
		c.BufferPackets = int(bdp)
		if c.BufferPackets < 2 {
			c.BufferPackets = 2
		}
	}
	if c.Queue == "" {
		c.Queue = DropTail
	}
	if c.SFQBuckets == 0 {
		c.SFQBuckets = 64
	}
	if c.SliceWidth == 0 {
		c.SliceWidth = 20 * sim.Second
	}
	switch {
	case c.AccessJitter == 0:
		// The jitter must exceed one bottleneck serialization time or
		// ack-clocked flows stay phase-locked to queue departures
		// (arriving just as a slot frees) while competitors always
		// find the queue full.
		c.AccessJitter = 2 * c.Bandwidth.TxTime(c.TCP.MSS)
	case c.AccessJitter < 0:
		c.AccessJitter = 0
	}
}

// Flow bundles the endpoints of one connection in the network. For
// TCP flows Sender/Receiver are set; for TFRC flows (AddTFRCFlow)
// TFRCSender/TFRCReceiver are set instead.
type Flow struct {
	ID           packet.FlowID
	Pool         packet.PoolID
	Sender       *tcp.Sender
	Receiver     *tcp.Receiver
	TFRCSender   *tfrc.Sender
	TFRCReceiver *tfrc.Receiver
	RTT          sim.Time
	Started      sim.Time

	net *Network
	// toReceiver and toSender are the two endpoints' Deliver funcs.
	toReceiver, toSender func(*packet.Packet)
	// packets is where a packet goes once its endpoint's Deliver has
	// returned: the network's pool for TCP flows, whose endpoints draw
	// from it; nil for TFRC flows, whose endpoints allocate their own.
	packets *packet.Pool
	// The per-hop event handlers, bound once when the flow is built so
	// a packet in flight is a sim.AfterArg payload and not a closure:
	// arrival at the receiver, arrival at the sender, and (TCP flows
	// under two-way observation only, else nil) the ack passing the
	// middlebox halfway back.
	fwdArrive, revArrive, revMidpoint func(any)
	// lastFwdArrival enforces per-flow FIFO ordering on the jittered
	// access path (jitter shifts arrivals but must not reorder a
	// flow's own packets).
	lastFwdArrival sim.Time
	// inNet counts the flow's packets between its endpoints: handed to
	// sendForward or sendReverse and not yet delivered, dropped at the
	// bottleneck or lost beyond it.
	inNet int
	// closed is set by Release: the network forgets the flow once it is
	// quiescent.
	closed bool
}

// Network is an instantiated dumbbell scenario.
type Network struct {
	Cfg Config
	// Runner is the clock, scheduler and random source everything in the
	// network runs on: the simulator's engine (New) or any other
	// sim.Runner (NewOn), such as the wall-clock emu.Engine.
	Runner sim.Runner
	// Engine is Runner when that is the simulator's engine — what Run
	// and callers that step or inspect the event loop use — and nil on
	// any other runner.
	Engine *sim.Engine
	Link   *link.Link
	// Middlebox is non-nil when the queue discipline is TAQ.
	Middlebox *core.Sharded
	// Slicer accumulates per-flow delivered bytes for fairness and
	// evolution analyses.
	Slicer *metrics.Slicer
	// Hangs tracks user-perceived hang times per pool.
	Hangs *metrics.HangTracker
	// Census, when non-nil (EnableCensus), tallies per-epoch packets
	// sent per flow at the bottleneck output.
	Census *metrics.Census
	// QueueDelays samples the queueing+serialization delay of every
	// 16th packet leaving the bottleneck (seconds).
	QueueDelays metrics.CDF
	delaySample uint64
	// Events, when non-nil (EnableObservability), receives the
	// structured trace of bottleneck activity.
	Events *obs.Recorder
	// Gauges, when non-nil (EnableGauges), samples the bottleneck
	// time series; callers Stop it (or Close the network) to flush.
	Gauges *obs.GaugeSet
	// Metrics, when non-nil (EnableMetrics), is the registry holding
	// the bottleneck's counters and histograms; FCT is its
	// flow-completion-time histogram, fed through ObserveFCT. Its
	// counter families read the link's and middlebox's own counters, so
	// snapshot it on the network's runner.
	Metrics *obs.Registry
	// FCT is nil until EnableMetrics.
	FCT *obs.Histogram

	// flows holds the flows added and not yet released (Release); nextID
	// is also how many were ever added.
	flows  map[packet.FlowID]*Flow
	nextID packet.FlowID
	// releasedTimeouts and releasedRepetitive carry the released flows'
	// share of AggregateTimeouts.
	releasedTimeouts, releasedRepetitive uint64
	// strays counts packets that met the bottleneck with no flow to
	// account them to — hand-injected in tests, or a flow released with a
	// packet still in the network, which tests assert never happens.
	strays uint64
	// holdReleases, when set (tests only), keeps released flows in the
	// network, so a test can show a run reads the same either way.
	holdReleases bool

	// packets recycles the TCP endpoints' packets: one free list for the
	// whole network, because a list per flow or per endpoint would each
	// retain its own peak. Only returnPacket feeds it.
	packets packet.Pool
	// toQueue is the access path's event handler (bound once in New): a
	// packet reaching the bottleneck queue.
	toQueue func(any)
	// onPut, when set (tests only), sees every packet just after it was
	// returned to the pool.
	onPut func(*packet.Packet)

	// QueueArrivals and QueueDrops count packets offered to and
	// dropped at the bottleneck queue; ExternalDrops counts losses on
	// the post-bottleneck underlay (Config.ExternalLoss).
	QueueArrivals, QueueDrops, ExternalDrops uint64
}

// New builds a network from cfg on a fresh simulator engine seeded
// with cfg.Seed.
func New(cfg Config) (*Network, error) {
	return NewOn(sim.NewEngine(cfg.Seed), cfg)
}

// NewOn builds a network from cfg on run; cfg.Seed is not read (run
// brings its own random source). Every clock read, random draw and
// scheduled event of the network, its endpoints and its middlebox goes
// through run, so two runners differ in the clock and in nothing else.
// On a runner that serializes callbacks with a lock (emu.Engine), call
// NewOn and every method of the network with that lock held.
func NewOn(run sim.Runner, cfg Config) (*Network, error) {
	cfg.fillDefaults()
	n := &Network{
		Cfg:    cfg,
		Runner: run,
		Slicer: metrics.NewSlicer(cfg.SliceWidth),
		Hangs:  metrics.NewHangTracker(),
		flows:  make(map[packet.FlowID]*Flow),
	}
	n.Engine, _ = run.(*sim.Engine)
	n.toQueue = n.enqueue

	var disc queue.Discipline
	switch cfg.Queue {
	case DropTail:
		disc = queue.NewDropTail(cfg.BufferPackets)
	case RED:
		disc = queue.NewRED(queue.REDConfig{
			Capacity:    cfg.BufferPackets,
			MeanPktTime: cfg.Bandwidth.TxTime(cfg.TCP.MSS),
		}, run.Now, run.Rand())
	case SFQ:
		disc = queue.NewSFQ(cfg.SFQBuckets, cfg.BufferPackets)
	case TAQ:
		tcfg := core.ResolveConfig(cfg.TAQ, cfg.Bandwidth, cfg.BufferPackets)
		n.Middlebox = core.NewSharded(run, tcfg, cfg.TAQShards)
		n.Middlebox.Start()
		disc = n.Middlebox
	default:
		return nil, fmt.Errorf("topology: unknown queue kind %q", cfg.Queue)
	}
	disc.AddDropHook(func(p *packet.Packet) {
		n.QueueDrops++
		if f, ok := n.flows[p.Flow]; ok {
			f.left()
		} else {
			n.strays++
		}
	})

	// The bottleneck link's propagation delay is folded into per-flow
	// paths, so the link itself adds none.
	n.Link = link.New(run, cfg.Bandwidth, 0, disc, n.deliverForward)
	return n, nil
}

// MustNew is New for callers with static configs (panics on error).
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// EnableCensus attaches a per-epoch packets-sent census at the
// bottleneck output, rolling every epoch (use the flows' RTT).
func (n *Network) EnableCensus(maxClass int, epoch sim.Time) {
	n.Census = metrics.NewCensus(maxClass)
	n.Census.ScheduleRolls(n.Runner, epoch)
}

// EnableObservability attaches a trace recorder to the bottleneck: the
// link records the generic enqueue/dequeue lifecycle, the TAQ
// middlebox (when present) its class-specific drop/transition/admission
// events; for baseline disciplines a chained drop hook records the
// drops instead. Call before the run starts; rec may be nil to leave
// tracing off.
func (n *Network) EnableObservability(rec *obs.Recorder) {
	n.Events = rec
	if rec == nil {
		return
	}
	n.Link.SetRecorder(rec)
	if n.Middlebox != nil {
		n.Middlebox.SetRecorder(rec)
		return
	}
	n.Link.Discipline().AddDropHook(func(p *packet.Packet) {
		rec.Drop(n.Runner.Now(), p, -1, p.Retransmit)
	})
}

// EnableMetrics creates the network's metrics registry and installs
// the full schema: link transmit/sojourn instruments, the
// flow-completion-time histogram, and — with a TAQ middlebox — the
// per-class drop/serve/delay and tracker/admission instruments. Call
// before the run starts; the returned registry snapshots at any time
// (obs.MetricsSnapshot), typically once at run end for the
// -metrics-out artifact.
func (n *Network) EnableMetrics() *obs.Registry {
	if n.Metrics != nil {
		return n.Metrics
	}
	reg := obs.NewRegistry()
	n.Link.SetMetrics(link.NewMetrics(reg))
	n.FCT = obs.FCTHistogram(reg)
	if n.Middlebox != nil {
		// One registry for all shards: the network drives every shard
		// from one runner.
		n.Middlebox.SetMetrics(core.NewMetrics(reg))
	}
	n.Metrics = reg
	return reg
}

// ObserveFCT records a completed transfer into the FCT histogram,
// classed by size. A no-op until EnableMetrics.
func (n *Network) ObserveFCT(started sim.Time, sizeBytes int) {
	if n.FCT == nil {
		return
	}
	n.FCT.ObserveAt(obs.FCTSizeClass(sizeBytes), n.Runner.Now()-started)
}

// EnableGauges starts periodic sampling of the bottleneck time series
// onto sink: queue depth and bytes, cumulative arrivals/drops, link
// utilization, and — with a TAQ middlebox — per-class queue depths,
// active/recovering flow counts, the loss-rate EWMA, and the admission
// backlog. Returns the running gauge set (also kept in n.Gauges);
// Stop it after the run to flush the sink. A nil sink registers the
// same columns for Gauges.Snapshot and samples nothing.
func (n *Network) EnableGauges(interval sim.Time, sink obs.SeriesSink) *obs.GaugeSet {
	g := obs.NewGaugeSet(n.Runner, interval, sink)
	disc := n.Link.Discipline()
	g.RegisterInt("qlen", disc.Len)
	g.RegisterInt("qbytes", disc.Bytes)
	g.Register("arrivals", func() float64 { return float64(n.QueueArrivals) })
	g.Register("drops", func() float64 { return float64(n.QueueDrops) })
	g.Register("utilization", n.Utilization)
	if mb := n.Middlebox; mb != nil {
		g.RegisterInt("qlen_recovery", func() int { return mb.QueueLen(core.ClassRecovery) })
		g.RegisterInt("qlen_newflow", func() int { return mb.QueueLen(core.ClassNewFlow) })
		g.RegisterInt("qlen_overpenalized", func() int { return mb.QueueLen(core.ClassOverPenalized) })
		g.RegisterInt("qlen_belowfair", func() int { return mb.QueueLen(core.ClassBelowFair) })
		g.RegisterInt("qlen_abovefair", func() int { return mb.QueueLen(core.ClassAboveFair) })
		g.RegisterInt("active_flows", mb.ActiveFlows)
		g.RegisterInt("recovering_flows", mb.RecoveringFlows)
		g.Register("loss_ewma", mb.LossEWMA)
		g.RegisterInt("waiting_pools", mb.WaitingPools)
	}
	g.Start()
	n.Gauges = g
	return g
}

// accessDelay returns the jittered access delay for the next packet of
// f, never earlier than the flow's previous packet (FIFO per flow).
func (n *Network) accessDelay(f *Flow, base sim.Time) sim.Time {
	d := base
	if n.Cfg.AccessJitter > 0 {
		d += sim.Time(n.Runner.Rand().Int63n(int64(n.Cfg.AccessJitter)))
	}
	now := n.Runner.Now()
	at := now + d
	if at < f.lastFwdArrival {
		at = f.lastFwdArrival
	}
	f.lastFwdArrival = at
	return at - now
}

// deliverForward dispatches packets leaving the bottleneck to the
// destination receiver, after the flow's residual one-way delay.
func (n *Network) deliverForward(p *packet.Packet) {
	f, ok := n.flows[p.Flow]
	if !ok {
		n.strays++
		return
	}
	if n.Cfg.ExternalLoss > 0 && n.Runner.Rand().Float64() < n.Cfg.ExternalLoss {
		n.ExternalDrops++
		f.left()
		return
	}
	if p.Kind == packet.Data && n.Census != nil {
		n.Census.Observe(p.Flow)
	}
	n.delaySample++
	if n.delaySample%16 == 0 {
		n.QueueDelays.Add((n.Runner.Now() - p.Enqueued).Seconds())
	}
	sim.AfterArg(n.Runner, f.RTT/4, f.fwdArrive, p)
}

// enqueue is the toQueue handler: a packet's access delay has elapsed.
func (n *Network) enqueue(arg any) {
	n.QueueArrivals++
	n.Link.Enqueue(arg.(*packet.Packet))
}

// returnPacket ends a packet's life: its endpoint's Deliver has
// returned, so no reference survives (endpoints copy what they keep).
// This is the only place packets re-enter the pool; packets that die
// anywhere else — queue drops, which drop hooks may retain,
// ExternalLoss, an unknown flow — are left to the garbage collector.
func (f *Flow) returnPacket(p *packet.Packet) {
	f.left()
	if f.packets == nil {
		return // a TFRC packet: not from the pool, so never into it
	}
	f.packets.Put(p)
	if f.net.onPut != nil {
		f.net.onPut(p)
	}
}

// sendForward is the sending endpoint's out: sender → (access delay
// rtt/4 + jitter) → queue.
func (f *Flow) sendForward(p *packet.Packet) {
	n := f.net
	f.inNet++
	sim.AfterArg(n.Runner, n.accessDelay(f, f.RTT/4), n.toQueue, p)
}

func (f *Flow) forwardArrive(arg any) {
	p := arg.(*packet.Packet)
	f.toReceiver(p)
	f.returnPacket(p)
}

// sendReverse is the receiving endpoint's out: receiver → sender,
// uncongested, half the RTT. In two-way mode the middlebox observes
// acks in passing at the midpoint.
func (f *Flow) sendReverse(p *packet.Packet) {
	f.inNet++
	if f.revMidpoint != nil {
		sim.AfterArg(f.net.Runner, f.RTT/4, f.revMidpoint, p)
		return
	}
	sim.AfterArg(f.net.Runner, f.RTT/2, f.revArrive, p)
}

func (f *Flow) reverseMidpoint(arg any) {
	p := arg.(*packet.Packet)
	f.net.Middlebox.ObserveReverse(p)
	sim.AfterArg(f.net.Runner, f.RTT/4, f.revArrive, p)
}

func (f *Flow) reverseArrive(arg any) {
	p := arg.(*packet.Packet)
	f.toSender(p)
	f.returnPacket(p)
}

// delivered is the receiving endpoint's OnDeliver: units more
// MSS-sized segments reached the application in order.
func (f *Flow) delivered(units int) {
	n := f.net
	now := n.Runner.Now()
	n.Slicer.Record(f.ID, now, units*n.Cfg.TCP.MSS)
	if f.Pool != packet.PoolNone {
		n.Hangs.Touch(f.Pool, now)
	}
}

// newFlow draws the next flow's ID and RTT and binds its per-hop
// handlers. The caller builds the endpoints around f.sendForward,
// f.sendReverse and f.delivered, then hands them to start.
func (n *Network) newFlow(pool packet.PoolID, startAt sim.Time) *Flow {
	id := n.nextID
	n.nextID++
	rtt := n.Cfg.PropRTT
	if j := n.Cfg.RTTJitter; j > 0 {
		rtt = sim.Time(float64(rtt) * (1 - j + 2*j*n.Runner.Rand().Float64()))
	}
	f := &Flow{ID: id, Pool: pool, RTT: rtt, Started: startAt, net: n}
	f.fwdArrive = f.forwardArrive
	f.revArrive = f.reverseArrive
	return f
}

// start registers f, whose endpoints take packets through toReceiver
// and toSender, and schedules begin (the sending endpoint's Start) at
// the flow's start time.
func (n *Network) start(f *Flow, toReceiver, toSender func(*packet.Packet), begin func()) {
	f.toReceiver, f.toSender = toReceiver, toSender
	n.flows[f.ID] = f
	n.Slicer.Register(f.ID, f.Started)
	if n.Census != nil {
		n.Census.Register(f.ID)
	}
	if f.Pool != packet.PoolNone {
		n.Hangs.Start(f.Pool, f.Started)
	}
	sim.After(n.Runner, f.Started-n.Runner.Now(), begin)
}

// AddFlow creates a TCP flow with the given app, starting its
// handshake at startAt. Pool groups flows for hang tracking and
// admission control; use packet.PoolNone for independent flows.
func (n *Network) AddFlow(pool packet.PoolID, app tcp.App, startAt sim.Time) *Flow {
	f := n.newFlow(pool, startAt)
	f.packets = &n.packets
	if n.Cfg.TwoWayObservation && n.Middlebox != nil {
		f.revMidpoint = f.reverseMidpoint
	}
	f.Receiver = tcp.NewReceiver(n.Runner, n.Cfg.TCP, f.ID, pool, f.sendReverse)
	f.Receiver.Packets = f.packets
	f.Receiver.OnDeliver = f.delivered
	f.Sender = tcp.NewSender(n.Runner, n.Cfg.TCP, f.ID, pool, app, f.sendForward)
	f.Sender.Packets = f.packets
	n.start(f, f.Receiver.Deliver, f.Sender.Deliver, f.Sender.Start)
	return f
}

// AddTFRCFlow creates a TFRC (equation-rate-controlled) flow starting
// at startAt — the baseline the paper's introduction rules out for
// sub-packet regimes. TFRC endpoints allocate their own packets, so
// the flow has no pool and its packets are never recycled.
func (n *Network) AddTFRCFlow(pool packet.PoolID, startAt sim.Time) *Flow {
	f := n.newFlow(pool, startAt)
	cfg := tfrc.DefaultConfig()
	cfg.MSS = n.Cfg.TCP.MSS
	cfg.InitialRTT = f.RTT
	f.TFRCReceiver = tfrc.NewReceiver(n.Runner, cfg, f.ID, pool, f.sendReverse)
	f.TFRCReceiver.OnDeliver = f.delivered
	f.TFRCSender = tfrc.NewSender(n.Runner, cfg, f.ID, pool, f.sendForward)
	n.start(f, f.TFRCReceiver.Deliver, f.TFRCSender.Deliver, f.TFRCSender.Start)
	return f
}

// Release tells the network that f's owner is done with it: the
// transfer completed or the connection gave up, and nobody will look the
// flow up again. The network forgets f at the first moment it is
// quiescent — none of its packets is between the endpoints and neither
// endpoint has a timer armed — and not before: a spurious
// retransmission still queued when the last ack landed goes on to be
// delivered, acked and observed like any other packet, so a run reads
// the same whether or not its flows are released. A quiescent flow can
// cause no further event. What outlives it is its Slicer series and its
// share of AggregateTimeouts; the endpoints go to the garbage
// collector. TCP flows only; flows never released stay for the life of
// the network.
func (n *Network) Release(f *Flow) {
	f.closed = true
	f.reap()
}

// left takes one of f's packets out of the in-network count.
func (f *Flow) left() {
	f.inNet--
	if f.closed {
		f.reap()
	}
}

// reap drops a released flow from the network if it is quiescent. Every
// event that can leave a flow quiescent passes through here: a packet
// leaving the network (left) and Release itself — a timer that fires
// re-arms itself, sends a packet or, when the handshake gives up, has
// the owner call Release.
func (f *Flow) reap() {
	n := f.net
	if f.inNet != 0 || !f.Sender.Quiet() || !f.Receiver.Quiet() || n.holdReleases {
		return
	}
	n.releasedTimeouts += f.Sender.Stats.Timeouts
	n.releasedRepetitive += f.Sender.Stats.RepetitiveTimeouts
	delete(n.flows, f.ID)
}

// Flow returns a flow by ID, or nil — also for a flow that was released.
func (n *Network) Flow(id packet.FlowID) *Flow { return n.flows[id] }

// NumFlows returns the number of flows added, released ones included.
func (n *Network) NumFlows() int { return int(n.nextID) }

// Run advances the simulation to the given virtual time. Simulator
// only: a wall-clock runner advances by itself.
func (n *Network) Run(until sim.Time) { n.Engine.RunUntil(until) }

// LossRate returns the measured drop fraction at the bottleneck queue.
func (n *Network) LossRate() float64 {
	if n.QueueArrivals == 0 {
		return 0
	}
	return float64(n.QueueDrops) / float64(n.QueueArrivals)
}

// Utilization returns bottleneck utilization over [0, now].
func (n *Network) Utilization() float64 {
	return n.Link.Utilization(n.Runner.Now())
}

// Goodput returns the fraction of the bottleneck capacity delivered as
// useful (first-time, in-order) data over [0, now] — the §2.3 metric
// that "remains consistently high (greater than 90%)" even while
// fairness collapses. Unlike Utilization it excludes retransmitted
// and duplicate bytes.
func (n *Network) Goodput() float64 {
	elapsed := n.Runner.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	// Every flow added is registered with the Slicer under the next id,
	// and its series outlives a Release.
	var bytes float64
	for id := packet.FlowID(0); id < n.nextID; id++ {
		bytes += n.Slicer.FlowTotal(id)
	}
	return bytes * 8 / elapsed / float64(n.Cfg.Bandwidth)
}

// AggregateTimeouts sums sender timeout statistics across TCP flows.
func (n *Network) AggregateTimeouts() (timeouts, repetitive uint64) {
	timeouts, repetitive = n.releasedTimeouts, n.releasedRepetitive
	for _, f := range n.flows {
		if f.Sender == nil {
			continue
		}
		timeouts += f.Sender.Stats.Timeouts
		repetitive += f.Sender.Stats.RepetitiveTimeouts
	}
	return
}

// FairSharePerFlow returns the ideal per-flow fair share in bits per
// second (C/N), the x-axis of Figs 2, 8 and 11.
func (n *Network) FairSharePerFlow() float64 {
	if n.nextID == 0 {
		return float64(n.Cfg.Bandwidth)
	}
	return float64(n.Cfg.Bandwidth) / float64(n.nextID)
}
