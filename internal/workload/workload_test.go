package workload

import (
	"bytes"
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"taq/internal/emu"
	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/trace"
)

func quickNet(seed int64, bw link.Bps, qk topology.QueueKind) *topology.Network {
	return topology.MustNew(topology.Config{Seed: seed, Bandwidth: bw, Queue: qk})
}

// substrate is a network for a test body that must hold on the simulator
// and on the prototype testbed alike.
type substrate struct {
	net *topology.Network
	// do runs fn with the network held: directly on the simulator, under
	// the engine lock on the testbed.
	do func(fn func())
	// await advances virtual time until done() holds: by limit on the
	// simulator, where that is known to be enough; on the testbed, where
	// wall-clock timer latency stretches everything, for as long as it
	// takes, up to a generous wall deadline. The caller asserts done.
	await func(limit sim.Time, done func() bool)
}

// onBothSubstrates runs body on cfg built by topology.New and by
// emu.NewTestbed (100x time compression).
func onBothSubstrates(t *testing.T, cfg topology.Config, body func(t *testing.T, s substrate)) {
	t.Run("sim", func(t *testing.T) {
		n := topology.MustNew(cfg)
		body(t, substrate{
			net:   n,
			do:    func(fn func()) { fn() },
			await: func(limit sim.Time, _ func() bool) { n.Run(n.Engine.Now() + limit) },
		})
	})
	t.Run("emu", func(t *testing.T) {
		tb := emu.NewTestbed(emu.TestbedConfig{Config: cfg, Speedup: 100})
		defer tb.Stop()
		body(t, substrate{
			net: tb.Net,
			do:  tb.Snapshot,
			await: func(limit sim.Time, done func() bool) {
				for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
					ok := false
					tb.Snapshot(func() { ok = done() })
					if ok {
						return
					}
					tb.RunFor(limit / 20)
				}
			},
		})
	})
}

func TestAddBulkFlows(t *testing.T) {
	n := quickNet(1, 1000*link.Kbps, topology.DropTail)
	flows := AddBulkFlows(n, 5, 100*sim.Millisecond)
	if len(flows) != 5 || n.NumFlows() != 5 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[4].Started != 400*sim.Millisecond {
		t.Errorf("stagger wrong: %v", flows[4].Started)
	}
	n.Run(20 * sim.Second)
	for _, f := range flows {
		if n.Slicer.FlowTotal(f.ID) == 0 {
			t.Errorf("flow %d delivered nothing", f.ID)
		}
	}
}

func TestShortFlowCompletes(t *testing.T) {
	n := quickNet(2, 1000*link.Kbps, topology.DropTail)
	res := AddShortFlow(n, 10, sim.Second)
	n.Run(30 * sim.Second)
	if !res.Done {
		t.Fatal("short flow incomplete")
	}
	if res.Duration() <= 0 || res.Duration() > 10*sim.Second {
		t.Errorf("duration = %v", res.Duration())
	}
}

// TestShortFlowTimeoutsSurviveRelease: a finished short flow leaves the
// network, and its result still knows how many timeouts it took.
func TestShortFlowTimeoutsSurviveRelease(t *testing.T) {
	n := quickNet(8, 200*link.Kbps, topology.DropTail)
	AddBulkFlows(n, 12, 50*sim.Millisecond)
	var results []*ShortFlowResult
	var flows []*topology.Flow
	for i := 0; i < 10; i++ {
		res := AddShortFlow(n, 15, sim.Time(5+3*i)*sim.Second)
		results, flows = append(results, res), append(flows, n.Flow(res.Flow))
	}
	n.Run(300 * sim.Second)
	done, timedOut := 0, 0
	for i, res := range results {
		if got, want := res.Timeouts(), flows[i].Sender.Stats.Timeouts; got != want {
			t.Errorf("short flow %d: Timeouts() = %d, its sender counted %d", i, got, want)
		}
		if res.Timeouts() > 0 {
			timedOut++
		}
		if res.Done {
			done++
		}
		if released := n.Flow(res.Flow) == nil; released != res.Done {
			t.Errorf("short flow %d: done %v, released %v", i, res.Done, released)
		}
	}
	if done == 0 || timedOut == 0 {
		t.Errorf("%d of 10 done, %d took a timeout: want some of each", done, timedOut)
	}
}

func TestSessionFetchesObjectsWithBoundedParallelism(t *testing.T) {
	cfg := topology.Config{Seed: 3, Bandwidth: 1000 * link.Kbps}
	onBothSubstrates(t, cfg, func(t *testing.T, sub substrate) {
		n := sub.net
		var s *Session
		sub.do(func() {
			s = NewSession(n, 1, 2)
			for i := 0; i < 5; i++ {
				s.Request(5000, 0)
			}
		})
		completed := func() int {
			done := 0
			for _, r := range s.Results {
				if r.Done {
					done++
				}
			}
			return done
		}
		// With 2 connections, at most 2 active at once: a third flow
		// needs a finished object.
		sub.await(100*sim.Millisecond, func() bool { return n.NumFlows() > 0 })
		sub.do(func() {
			if n.NumFlows() > 2+completed() {
				t.Errorf("flows created = %d with %d objects done, want ≤2 (maxConns) open", n.NumFlows(), completed())
			}
		})
		sub.await(60*sim.Second, func() bool { return completed() == 5 })
		sub.do(func() {
			if done := completed(); done != 5 {
				t.Fatalf("completed %d of 5", done)
			}
			if s.Outstanding() != 0 {
				t.Errorf("outstanding = %d", s.Outstanding())
			}
			// Objects requested together but serialized over 2 conns: no
			// object starts while two others are still in progress.
			for i, r := range s.Results {
				open := 0
				for j, o := range s.Results {
					if j != i && o.Started <= r.Started && o.End > r.Started {
						open++
					}
				}
				if open > 1 {
					t.Errorf("object %d started with %d others in progress, want ≤1", i, open)
				}
			}
		})
	})
}

// TestReplaySessionsInClientOrder pins Replay's result: one session per
// distinct client, sparse ids included, in ascending client order, each
// holding its requests in log order.
func TestReplaySessionsInClientOrder(t *testing.T) {
	recs := []trace.Record{
		{Time: 0, Client: 7, Size: 100},
		{Time: 1, Client: 3, Size: 200},
		{Time: 2, Client: 7, Size: 300},
		{Time: 3, Client: 1 << 30, Size: 400},
		{Time: 4, Client: 3, Size: 500},
	}
	sessions := Replay(quickNet(1, 1000*link.Kbps, topology.DropTail), recs, 4, ReplayTimed)
	want := []struct {
		client int
		sizes  []int
	}{{3, []int{200, 500}}, {7, []int{100, 300}}, {1 << 30, []int{400}}}
	if len(sessions) != len(want) {
		t.Fatalf("%d sessions, want %d", len(sessions), len(want))
	}
	for i, w := range want {
		s := sessions[i]
		if s.client != w.client || len(s.Results) != len(w.sizes) {
			t.Fatalf("session %d: client %d with %d requests, want client %d with %d", i, s.client, len(s.Results), w.client, len(w.sizes))
		}
		for k, size := range w.sizes {
			if r := s.Results[k]; r.SizeBytes != size || r.Client != w.client {
				t.Errorf("session %d request %d: client %d size %d, want client %d size %d", i, k, r.Client, r.SizeBytes, w.client, size)
			}
		}
	}
}

func TestReplayTimedVsASAP(t *testing.T) {
	recs := []trace.Record{
		{Time: 0, Client: 1, Size: 2000},
		{Time: 30 * sim.Second, Client: 1, Size: 2000},
		{Time: 0, Client: 2, Size: 2000},
	}
	// Timed: the second object of client 1 can't finish before 30s.
	n1 := quickNet(4, 1000*link.Kbps, topology.DropTail)
	s1 := Replay(n1, recs, 4, ReplayTimed)
	n1.Run(60 * sim.Second)
	if len(s1) != 2 || s1[0].client != 1 || s1[1].client != 2 {
		t.Fatalf("sessions = %d, want clients 1 and 2 in order", len(s1))
	}
	if got := s1[0].Results[1].End; got < 30*sim.Second {
		t.Errorf("timed replay finished 2nd object at %v, before its request time", got)
	}
	// ASAP: everything can finish within seconds.
	n2 := quickNet(4, 1000*link.Kbps, topology.DropTail)
	s2 := Replay(n2, recs, 4, ReplayASAP)
	n2.Run(60 * sim.Second)
	if got := s2[0].Results[1].End; got > 20*sim.Second {
		t.Errorf("ASAP replay too slow: %v", got)
	}
	if CompletedFraction(s2) != 1 {
		t.Errorf("ASAP completion = %v", CompletedFraction(s2))
	}
}

func TestCollectObjectSamplesAndCDF(t *testing.T) {
	cfg := topology.Config{Seed: 5, Bandwidth: 1000 * link.Kbps}
	recs := []trace.Record{
		{Time: 0, Client: 1, Size: 15 * 1024},
		{Time: 0, Client: 2, Size: 105 * 1024},
	}
	onBothSubstrates(t, cfg, func(t *testing.T, sub substrate) {
		var sessions []*Session
		sub.do(func() { sessions = Replay(sub.net, recs, 4, ReplayASAP) })
		sub.await(120*sim.Second, func() bool { return CompletedFraction(sessions) == 1 })
		sub.do(func() {
			samples := CollectObjectSamples(sessions)
			if len(samples) != 2 {
				t.Fatalf("samples = %d", len(samples))
			}
			small := DownloadCDF(sessions, 10*1024, 20*1024)
			if small.N() != 1 {
				t.Errorf("small-bucket CDF N = %d", small.N())
			}
			big := DownloadCDF(sessions, 100*1024, 110*1024)
			if big.N() != 1 {
				t.Errorf("big-bucket CDF N = %d", big.N())
			}
			if big.Median() <= small.Median() {
				t.Errorf("bigger object downloaded faster: %v vs %v", big.Median(), small.Median())
			}
		})
	})
}

func TestWebUserPool(t *testing.T) {
	n := quickNet(6, 1000*link.Kbps, topology.DropTail)
	WebUserPool(n, 10, 4, sim.Second)
	if n.NumFlows() != 40 {
		t.Fatalf("flows = %d, want 40", n.NumFlows())
	}
	n.Run(30 * sim.Second)
	n.Hangs.Finish(n.Engine.Now())
	if n.Hangs.NumPools() != 10 {
		t.Errorf("pools = %d, want 10", n.Hangs.NumPools())
	}
}

func TestSessionGivesUpWhenSynFails(t *testing.T) {
	// A tiny, swamped DropTail with MaxSynRetries=0 makes handshakes
	// fail; OnFail must free the connection slot (no deadlock).
	cfg := topology.Config{Seed: 7, Bandwidth: 50 * link.Kbps, BufferPackets: 2}
	tcpCfg := cfg.TCP
	_ = tcpCfg
	n := topology.MustNew(cfg)
	// Fill the link with background flows so SYNs drop.
	AddBulkFlows(n, 30, 0)
	s := NewSession(n, 1, 1)
	for i := 0; i < 3; i++ {
		s.Request(1000, sim.Second)
	}
	n.Run(300 * sim.Second)
	// All objects either completed or failed; none stuck pending
	// behind a dead slot.
	if s.Outstanding() > 1 {
		t.Errorf("outstanding = %d; session deadlocked", s.Outstanding())
	}
}

// replayHeap replays a generated log of the given length (the request
// rate is fixed, so concurrency is the same for any length), drains it,
// and returns how many connections it made and how many bytes of heap the
// network and its sessions hold afterwards.
func replayHeap(t *testing.T, duration sim.Time) (conns int, heap uint64) {
	t.Helper()
	gen := trace.DefaultGenConfig()
	gen.Duration = duration
	gen.Clients = 40
	gen.RequestsPerClientPerMin = 3
	gen.MaxSize = 64 << 10
	recs := trace.Generate(gen)

	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	n := quickNet(11, 2000*link.Kbps, topology.TAQ)
	sessions := Replay(n, recs, 4, ReplayTimed)
	n.Run(duration + 300*sim.Second)
	after := live()
	if frac := CompletedFraction(sessions); frac != 1 {
		t.Fatalf("completed %.3f of %d objects", frac, len(recs))
	}
	runtime.KeepAlive(n)
	return n.NumFlows(), after - min(before, after)
}

// TestReplayHeapBoundedByLiveFlows is the memory claim of the flow
// lifecycle: a replay four times as long, at the same concurrency, ends
// holding only what a finished connection leaves behind on purpose — its
// ObjectResult and its Slicer series, a few hundred bytes — and not its
// endpoints, which used to stay for ≈2.2 KB each.
func TestReplayHeapBoundedByLiveFlows(t *testing.T) {
	shortConns, shortHeap := replayHeap(t, 250*sim.Second)
	longConns, longHeap := replayHeap(t, 1000*sim.Second)
	if longConns < 3*shortConns {
		t.Fatalf("%d and %d connections: the long log is not ≈4x the short one", shortConns, longConns)
	}
	perConn := (float64(longHeap) - float64(shortHeap)) / float64(longConns-shortConns)
	t.Logf("%d connections hold %d B, %d hold %d B: %.0f B per finished connection",
		shortConns, shortHeap, longConns, longHeap, perConn)
	if perConn > 512 {
		t.Errorf("heap grows by %.0f B per finished connection, want ≤ 512", perConn)
	}
}

// requestEach is the reference Replay: the same sessions, and one
// Request per record in log order, each its own pending event.
func requestEach(net *topology.Network, recs []trace.Record, maxConns int, mode ReplayMode) []*Session {
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
	for _, r := range recs {
		i, _ := slices.BinarySearch(clients, r.Client)
		at := r.Time
		if mode == ReplayASAP {
			at = 0
		}
		sessions[i].Request(r.Size, at)
	}
	return sessions
}

// replayOutcome replays recs with replay on a fresh TAQ network whose
// clock first runs to from, drains it, and returns every session's
// results and every flow's delivered bytes by flow id — which object
// rode which connection, in creation order.
func replayOutcome(t *testing.T, recs []trace.Record, mode ReplayMode, from sim.Time,
	replay func(*topology.Network, []trace.Record, int, ReplayMode) []*Session) ([][]ObjectResult, []float64) {
	t.Helper()
	n := quickNet(11, 2000*link.Kbps, topology.TAQ)
	n.Run(from)
	sessions := replay(n, recs, 4, mode)
	n.Run(from + 1200*sim.Second)
	if frac := CompletedFraction(sessions); frac < 0.9 {
		t.Fatalf("completed %.3f of %d objects: too few to compare", frac, len(recs))
	}
	results := make([][]ObjectResult, len(sessions))
	for i, s := range sessions {
		for _, r := range s.Results {
			results[i] = append(results[i], *r)
		}
	}
	bytes := make([]float64, n.NumFlows())
	for id := range bytes {
		bytes[id] = n.Slicer.FlowTotal(packet.FlowID(id))
	}
	return results, bytes
}

// checkReplayMatchesRequests runs recs through Replay and through one
// Request per record and fails unless both give every object the same
// request, start and end times and outcome, and create the same flows
// in the same order.
func checkReplayMatchesRequests(t *testing.T, recs []trace.Record, mode ReplayMode, from sim.Time) {
	t.Helper()
	gotRes, gotFlows := replayOutcome(t, recs, mode, from, Replay)
	wantRes, wantFlows := replayOutcome(t, recs, mode, from, requestEach)
	if len(gotRes) != len(wantRes) {
		t.Fatalf("%d sessions, want %d", len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		if !slices.Equal(gotRes[i], wantRes[i]) {
			t.Fatalf("session %d results differ:\n got %v\nwant %v", i, gotRes[i], wantRes[i])
		}
	}
	if !slices.Equal(gotFlows, wantFlows) {
		t.Fatalf("flows differ: %d created, want %d, or bytes by flow id differ", len(gotFlows), len(wantFlows))
	}
}

// TestReplayHoldsOneEvent pins the replay cursor: a generated 650 s log
// (≈3 600 records) adds one pending event to the engine, not one per
// record, and fires exactly as one Request per record would.
func TestReplayHoldsOneEvent(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Duration = 650 * sim.Second
	gen.MaxSize = 64 << 10
	recs := trace.Generate(gen)
	n := quickNet(11, 2000*link.Kbps, topology.DropTail)
	Replay(n, recs, 4, ReplayTimed)
	if got := n.Engine.Pending(); got != 1 {
		t.Fatalf("%d events pending after replaying %d records, want 1", got, len(recs))
	}
	checkReplayMatchesRequests(t, recs, ReplayTimed, 0)
}

// TestReplayOutOfOrderLogMatchesRequests replays a parsed log whose
// lines are out of time order, with same-instant records and records
// already in the past when Replay is called: they are issued at their
// times (the past ones now), same-instant ones in log order.
func TestReplayOutOfOrderLogMatchesRequests(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Duration = 120 * sim.Second
	gen.Clients = 60
	gen.MaxSize = 256 << 10
	recs := trace.Generate(gen)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	for i := 0; i+1 < len(recs); i += 7 {
		recs[i+1].Time = recs[i].Time
	}
	var text bytes.Buffer
	if err := trace.Write(&text, recs); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.Parse(&text)
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSortedFunc(parsed, func(a, b trace.Record) int { return cmp.Compare(a.Time, b.Time) }) {
		t.Fatal("parsed log is in time order; the test needs it out of order")
	}
	checkReplayMatchesRequests(t, parsed, ReplayTimed, 20*sim.Second)
}

// TestReplayASAPMatchesRequests: ASAP puts every request at one
// instant, so the cursor fires once and issues them all in log order.
func TestReplayASAPMatchesRequests(t *testing.T) {
	gen := trace.DefaultGenConfig()
	gen.Duration = 60 * sim.Second
	gen.Clients = 40
	gen.MaxSize = 256 << 10
	recs := trace.Generate(gen)
	checkReplayMatchesRequests(t, recs, ReplayASAP, 0)
	checkReplayMatchesRequests(t, recs, ReplayASAP, 5*sim.Second)
}
