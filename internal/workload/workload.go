// Package workload builds the traffic patterns of the paper's
// evaluation on top of a topology.Network: long-running bulk flows
// (Figs 2, 8, 9, 11), short flows against a bulk background (Fig 10),
// multi-connection web sessions with user-perceived hang tracking
// (§2.3), and access-log replay (Figs 1, 12).
package workload

import (
	"cmp"
	"slices"

	"taq/internal/metrics"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
	"taq/internal/trace"
)

// AddBulkFlows adds n long-running flows with starts staggered by
// stagger (staggering avoids artificial synchronization at t=0).
func AddBulkFlows(net *topology.Network, n int, stagger sim.Time) []*topology.Flow {
	flows := make([]*topology.Flow, 0, n)
	for i := 0; i < n; i++ {
		flows = append(flows, net.AddFlow(packet.PoolNone, tcp.BulkApp{}, sim.Time(i)*stagger))
	}
	return flows
}

// ShortFlowResult records the fate of one short flow.
type ShortFlowResult struct {
	Flow     packet.FlowID
	Segments int
	Start    sim.Time
	End      sim.Time
	Done     bool

	// sender is the flow's sender until the transfer completes and the
	// flow is released; timeouts is its count from then on.
	sender   *tcp.Sender
	timeouts uint64
}

// Timeouts returns how many retransmission timeouts the flow has taken.
func (r *ShortFlowResult) Timeouts() uint64 {
	if r.sender != nil {
		return r.sender.Stats.Timeouts
	}
	return r.timeouts
}

// Duration returns the flow completion time (start of handshake to
// last segment acked).
func (r *ShortFlowResult) Duration() sim.Time { return r.End - r.Start }

// AddShortFlow injects a flow of the given number of segments at time
// at, returning a result record filled in as the simulation runs.
func AddShortFlow(net *topology.Network, segments int, at sim.Time) *ShortFlowResult {
	res := &ShortFlowResult{Segments: segments, Start: at}
	app := &tcp.SizedApp{Total: segments}
	f := net.AddFlow(packet.PoolNone, app, at)
	res.Flow, res.sender = f.ID, f.Sender
	app.OnComplete = func() {
		res.End = net.Runner.Now()
		res.Done = true
		net.Slicer.Finish(f.ID, res.End)
		net.ObserveFCT(res.Start, segments*net.Cfg.TCP.MSS)
		// A finished transfer takes no further timeout.
		res.sender, res.timeouts = nil, f.Sender.Stats.Timeouts
		net.Release(f)
	}
	return res
}

// ObjectResult records one web object download.
type ObjectResult struct {
	Client    int
	SizeBytes int
	Requested sim.Time // when the user asked for it
	Started   sim.Time // when a connection began the handshake
	End       sim.Time
	Done      bool
}

// DownloadTime is the user-perceived download time of the object: from
// the moment a connection slot began the attempt (so SYN retries while
// waiting for admission are included, as Fig 12 requires) until the
// last byte arrived.
func (r *ObjectResult) DownloadTime() sim.Time { return r.End - r.Started }

// Session models one user's browser: up to MaxConns parallel
// connections, each fetching one object at a time from the session's
// request queue (the Fig 12 client behavior: "open up to four
// connections at a time, and request objects as soon as possible").
// Each object rides its own connection; connections retry SYNs until
// admitted when the TCP config allows. Sessions run on the network's
// runner — the simulator or the real-time testbed — so on a testbed
// create them and call Request with the engine lock held.
type Session struct {
	net      *topology.Network
	pool     packet.PoolID
	client   int
	maxConns int

	pending []*ObjectResult
	active  int

	// Results lists all objects ever enqueued for this session.
	Results []*ObjectResult
}

// NewSession creates a session on net for the given client id; its
// flows are grouped in a pool for hang tracking and admission control.
func NewSession(net *topology.Network, client int, maxConns int) *Session {
	if maxConns < 1 {
		maxConns = 1
	}
	return &Session{net: net, pool: packet.PoolID(client), client: client, maxConns: maxConns}
}

// Request enqueues an object of size bytes at time at (schedule it at
// the current simulation time or later).
func (s *Session) Request(sizeBytes int, at sim.Time) *ObjectResult {
	res := &ObjectResult{Client: s.client, SizeBytes: sizeBytes, Requested: at}
	s.Results = append(s.Results, res)
	run := s.net.Runner
	run.After(at-run.Now(), func() { s.enqueue(res) })
	return res
}

// enqueue queues res for a connection slot and starts what the free
// slots allow.
func (s *Session) enqueue(res *ObjectResult) {
	s.pending = append(s.pending, res)
	s.pump()
}

func (s *Session) pump() {
	for s.active < s.maxConns && len(s.pending) > 0 {
		res := s.pending[0]
		s.pending = s.pending[1:]
		s.start(res)
	}
}

// start opens a connection for res: a transfer of the object's size in
// the session's pool, whose completion — or failure, when the handshake
// gives up — frees the connection slot.
func (s *Session) start(res *ObjectResult) {
	s.active++
	net := s.net
	res.Started = net.Runner.Now()
	mss := net.Cfg.TCP.MSS
	segs := (res.SizeBytes + mss - 1) / mss
	if segs < 1 {
		segs = 1
	}
	app := &tcp.SizedApp{Total: segs}
	f := net.AddFlow(s.pool, app, res.Started)
	finish := func() {
		net.Slicer.Finish(f.ID, net.Runner.Now())
		net.Release(f)
		s.active--
		s.pump()
	}
	app.OnComplete = func() {
		net.ObserveFCT(f.Started, segs*mss)
		res.End = net.Runner.Now()
		res.Done = true
		finish()
	}
	// SYN retries exhausted: give up on this object.
	f.Sender.OnFail = finish
}

// Outstanding reports queued-plus-active object count.
func (s *Session) Outstanding() int { return len(s.pending) + s.active }

// ReplayMode selects how trace records are scheduled onto sessions.
type ReplayMode int

const (
	// ReplayTimed requests each object at its logged time (Fig 1).
	ReplayTimed ReplayMode = iota
	// ReplayASAP gives each client its whole request list up front;
	// sessions fetch as fast as their connections allow, simulating
	// request dependencies (Fig 12).
	ReplayASAP
)

// Replay drives trace records through per-client sessions on net and
// returns them in ascending client order. Each session's Results are in
// log order, and requests due at the same instant are issued in log
// order: the same firing order as one Request per record, from a single
// pending event instead of one per record.
func Replay(net *topology.Network, recs []trace.Record, maxConns int, mode ReplayMode) []*Session {
	clients := make([]int, len(recs))
	for i, r := range recs {
		clients[i] = r.Client
	}
	slices.Sort(clients)
	clients = slices.Compact(clients)
	sessions := make([]*Session, len(clients))
	for i, c := range clients {
		sessions[i] = NewSession(net, c, maxConns)
	}
	run := net.Runner
	now := run.Now()
	results := make([]ObjectResult, len(recs))
	due := make([]dueRequest, len(recs))
	for i, r := range recs {
		j, _ := slices.BinarySearch(clients, r.Client)
		s := sessions[j]
		res := &results[i]
		res.Client, res.SizeBytes = r.Client, r.Size
		if mode == ReplayTimed {
			res.Requested = r.Time
		}
		s.Results = append(s.Results, res)
		// A request due in the past is issued now, as Request would.
		due[i] = dueRequest{at: max(res.Requested, now), s: s, res: res}
	}
	slices.SortStableFunc(due, func(a, b dueRequest) int { return cmp.Compare(a.at, b.at) })
	if len(due) > 0 {
		c := &replayCursor{run: run, due: due}
		c.fireFn = c.fire
		run.After(due[0].at-now, c.fireFn)
	}
	return sessions
}

// dueRequest is one logged request waiting for its time.
type dueRequest struct {
	at  sim.Time
	s   *Session
	res *ObjectResult
}

// replayCursor is a replay's one pending event: it issues every request
// due by now, in (time, log) order, then re-arms itself for the next.
type replayCursor struct {
	run sim.Runner
	due []dueRequest
	// fireFn is fire bound once, so re-arming allocates nothing.
	fireFn func()
}

func (c *replayCursor) fire() {
	now := c.run.Now()
	for len(c.due) > 0 && c.due[0].at <= now {
		d := c.due[0]
		c.due = c.due[1:]
		d.s.enqueue(d.res)
	}
	if len(c.due) > 0 {
		c.run.After(c.due[0].at-now, c.fireFn)
	}
}

// CollectObjectSamples gathers completed downloads as size samples for
// Fig 1-style bucket analysis.
func CollectObjectSamples(sessions []*Session) []metrics.SizeSample {
	var out []metrics.SizeSample
	for _, s := range sessions {
		for _, r := range s.Results {
			if r.Done {
				out = append(out, metrics.SizeSample{
					SizeBytes: r.SizeBytes,
					Value:     r.DownloadTime().Seconds(),
				})
			}
		}
	}
	return out
}

// DownloadCDF collects download times (seconds) of completed objects
// whose size lies in [loBytes, hiBytes).
func DownloadCDF(sessions []*Session, loBytes, hiBytes int) *metrics.CDF {
	var c metrics.CDF
	for _, s := range sessions {
		for _, r := range s.Results {
			if r.Done && r.SizeBytes >= loBytes && r.SizeBytes < hiBytes {
				c.Add(r.DownloadTime().Seconds())
			}
		}
	}
	return &c
}

// CompletedFraction returns the fraction of requested objects that
// finished.
func CompletedFraction(sessions []*Session) float64 {
	total, done := 0, 0
	for _, s := range sessions {
		for _, r := range s.Results {
			total++
			if r.Done {
				done++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(done) / float64(total)
}

// WebUserPool spawns, for hang analysis (§2.3), users that each keep
// conns parallel long-running connections open, all starting within
// the first ramp interval.
func WebUserPool(net *topology.Network, users, conns int, ramp sim.Time) {
	for u := 0; u < users; u++ {
		start := sim.Time(0)
		if users > 1 {
			start = ramp * sim.Time(u) / sim.Time(users)
		}
		for c := 0; c < conns; c++ {
			net.AddFlow(packet.PoolID(u), tcp.BulkApp{}, start)
		}
	}
}
