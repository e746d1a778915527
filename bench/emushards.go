package main

import (
	"sync"
	"time"

	"taq"
	"taq/internal/emu"
)

const (
	emuFlows = 65536
	emuBatch = 256
	// probeEvery is the period of the timer-lateness probes of the
	// traced pass.
	probeEvery = 5 * taq.Millisecond
)

// emuShards drives an emu.ShardBank at wall-clock speed: one goroutine
// per shard posts batches of the raw mix to its own shard, and together
// they offer a fixed number of packets per repetition whatever the
// shard count, so packets per second compare across shard counts. A
// closed loop: each goroutine posts its next batch when the last
// returns.
type emuShards struct {
	shards int
	total  int // packets offered per repetition, all shards together

	bank  *emu.ShardBank
	lanes []*lane
}

// lane is one goroutine's side of one shard.
type lane struct {
	eng   *emu.Engine
	drv   *driver
	ids   []taq.FlowID // the flows this shard owns
	rnd   rng
	batch []laneOp
	exec  func() // runs batch; bound once so that Post allocates nothing
	// ref is the lane's own reference kernel, run between posts outside
	// the lock; work is the repetition's time net of it.
	ref  *hostRef
	work time.Duration

	// tr takes the spans recorded under the engine lock (timed batches,
	// probes); postTr those the driving goroutine records around Post.
	tr, postTr *tracer
	timed      bool
	// probeGen is odd while probes run; a probe armed under an older
	// value retires instead of re-arming.
	probeGen int
}

type laneOp struct {
	op   uint8
	fi   int32
	draw uint32
}

func newEmuShards(shards, total int) *emuShards {
	return &emuShards{shards: shards, total: max(total, 4*emuBatch)}
}

func (w *emuShards) build(seed int64, _ *hostRef) {
	cfg := taq.DefaultMiddleboxConfig(10*taq.Mbps, 256)
	cfg.PoolFairShare = true
	w.bank = emu.NewShardBank(emu.ShardBankConfig{Shards: w.shards, Seed: seed, Speedup: 1, Core: cfg, Metrics: true})
	w.lanes = make([]*lane, w.shards)
	for s := range w.lanes {
		w.lanes[s] = &lane{eng: w.bank.Shard(s).Engine, batch: make([]laneOp, 0, emuBatch), ref: newHostRef()}
	}
	for f := 1; f <= emuFlows; f++ {
		l := w.lanes[w.bank.ShardFor(taq.FlowID(f))]
		l.ids = append(l.ids, taq.FlowID(f))
	}
	for s, l := range w.lanes {
		l.exec = l.run
		// Under the shard's lock: its scan timer is already running.
		l.eng.Post(func() { l.drv = newDriver(w.bank.Shard(s).TAQ, l.eng.Now, len(l.ids)) })
	}
}

func (w *emuShards) close() {
	if w.bank != nil {
		w.bank.Stop()
	}
}

// run plays the lane's batch; it executes under the shard engine's
// lock. In a timed batch every call into the middlebox is a span.
func (l *lane) run() {
	var tr *tracer
	parent := int32(-1)
	if l.timed {
		tr = l.tr
		parent = tr.begin(spanStep, -1)
	}
	for _, b := range l.batch {
		l.drv.do(tr, parent, b.op, int(b.fi), l.ids[b.fi], uint64(b.draw))
	}
	tr.end(parent)
}

// drive posts batches until the lane has offered quota packets. The
// draws are made outside the lock; only the middlebox calls are inside.
func (l *lane) drive(quota int) {
	t0 := time.Now()
	l.ref.start()
	defer func() {
		l.ref.finish()
		l.work = time.Since(t0) - l.ref.spent
	}()
	batches := 0
	for quota > 0 {
		l.batch = l.batch[:0]
		for len(l.batch) < emuBatch && quota > 0 {
			draw := l.rnd.next()
			op := opOfDraw[draw%10]
			if op <= opRtx {
				quota--
			}
			l.batch = append(l.batch, laneOp{op: op, fi: int32((draw >> 8) % uint64(len(l.ids))), draw: uint32(draw >> 40)})
		}
		l.timed = l.tr != nil && batches%64 == 0
		t0 := l.postTr.clock()
		l.eng.Post(l.exec)
		if !l.timed {
			// Timed batches pay for their spans; only the others say
			// what a Post of 256 operations costs.
			l.postTr.leaf(spanPost, -1, t0)
		}
		batches++
		l.ref.maybe()
	}
}

// probe arms a timer on the lane's engine and records how late it
// fired, then re-arms itself until probing stops. Lateness includes
// the wait for the engine lock, which is what a TCP timer would see.
func (l *lane) probe() {
	gen := l.probeGen
	due := time.Now().Add(probeEvery.Duration())
	l.eng.Schedule(probeEvery, func() {
		if l.probeGen != gen {
			return
		}
		l.tr.between(spanTimerLate, due, time.Now())
		l.probe()
	})
}

func (w *emuShards) rep(sub int64, tr *tracer) repOut {
	o := repOut{noDigest: true}
	type counts struct {
		offered, served, dropped uint64
		qlen                     int
	}
	read := func() []counts {
		cs := make([]counts, len(w.lanes))
		for s, l := range w.lanes {
			l.eng.Post(func() {
				cs[s] = counts{l.drv.offered, l.drv.served, l.drv.dropped, w.bank.Shard(s).TAQ.Len()}
			})
		}
		return cs
	}
	before := read()
	for s, l := range w.lanes {
		l.rnd = rng{s: uint64(sub) + uint64(s)}
		child := tr.child()
		l.postTr = tr.child()
		l.eng.Post(func() {
			l.tr = child
			if child != nil {
				l.probeGen++
				l.probe()
			}
		})
	}

	m := startMeter()
	span := tr.begin(spanRep, -1)
	var wg sync.WaitGroup
	for _, l := range w.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.drive(w.total * len(l.ids) / emuFlows)
		}()
	}
	wg.Wait()
	tr.end(span)
	m.stop(&o)
	// The lanes ran their own reference kernels, in parallel: the
	// repetition lasted as long as the longer lane's work, and its CPU
	// time is net of both kernels.
	o.wall, o.slowdown = 0, 0
	for _, l := range w.lanes {
		o.wall = max(o.wall, l.work.Seconds())
		o.cpu -= l.ref.spent.Seconds()
		o.slowdown += l.ref.slowdown() / float64(len(w.lanes))
		o.heap -= l.ref.tableMB()
	}

	for _, l := range w.lanes {
		l.eng.Post(func() { l.probeGen++ })
	}
	after := read()
	var perShard []float64
	for s := range after {
		b, a := before[s], after[s]
		lane := repOut{offered: a.offered - b.offered, served: a.served - b.served, dropped: a.dropped - b.dropped, qlen0: b.qlen, qlen: a.qlen}
		lane.conserve()
		for _, e := range lane.errs {
			o.errf("shard %d: %s", s, e)
		}
		o.offered += lane.offered
		o.served += lane.served
		o.dropped += lane.dropped
		o.qlen0 += b.qlen
		o.qlen += a.qlen
		perShard = append(perShard, float64(lane.offered))
	}
	// The merged per-shard registries must agree with what the harness
	// counted at the interface since the bank was built.
	var served, dropped uint64
	for _, a := range after {
		served += a.served
		dropped += a.dropped
	}
	for _, c := range w.bank.MergedSnapshot().Counters {
		var sum uint64
		for _, v := range c.Values {
			sum += v
		}
		switch {
		case c.Name == "taq_served_total" && sum != served:
			o.errf("registry taq_served_total %d != harness served %d", sum, served)
		case c.Name == "taq_drops_total" && sum != dropped:
			o.errf("registry taq_drops_total %d != harness dropped %d", sum, dropped)
		}
	}
	o.imbalance = quantile(perShard, 1) / mean(perShard)
	o.attempted = o.offered
	return o
}
