package main

import (
	"math"
	"runtime"

	"taq"
	"taq/internal/queue"
)

// middlebox is what the raw load generators drive: a discipline plus
// the ack-path tap. *taq.Middlebox and a bank shard both provide it.
type middlebox interface {
	queue.Discipline
	ObserveReverse(*taq.Packet)
}

// rng is splitmix64: a few ALU operations per draw and no allocation,
// so the generator stays a small, constant part of every operation.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Operation kinds of the raw mix: of ten operations one is a SYN, five
// are new data, one is a retransmission, one is a reverse-path ack and
// two are dequeue bursts.
const (
	opSyn = iota
	opData
	opRtx
	opAck
	opDequeue
)

var opOfDraw = [10]uint8{opSyn, opData, opData, opData, opData, opData, opRtx, opAck, opDequeue, opDequeue}

// burstOf sizes a dequeue burst at 2 or 3 packets, 2.625 on average:
// with 7 enqueues to 2 bursts in every 10 operations, the discipline
// must drop a quarter of what it is offered.
func burstOf(draw uint64) int {
	if draw%8 < 5 {
		return 3
	}
	return 2
}

// driver is the load generator's side of one discipline: the packet
// free list, the counters taken at the interface, and the running
// digest of every packet's fate. Packets come back through Dequeue and
// the drop hook and are recycled, so allocation measured around a
// driver is the program's.
type driver struct {
	mb   middlebox
	now  func() taq.Time
	free []*taq.Packet
	ack  taq.Packet
	seqs []int32 // next new sequence number, by flow index

	offered, served, dropped uint64
	fate                     uint64
}

func newDriver(mb middlebox, now func() taq.Time, flows int) *driver {
	d := &driver{mb: mb, now: now, seqs: make([]int32, flows), fate: newDigest().h}
	// Sized once: the free list never holds more than was ever queued.
	d.free = make([]*taq.Packet, 1024)
	for i := range d.free {
		d.free[i] = new(taq.Packet)
	}
	// A literal, not a method value: taqvet's hot-path closure counts
	// every declared function a hot indirect call could reach, and the
	// committed closure baseline must not grow by the harness.
	mb.AddDropHook(func(p *taq.Packet) {
		d.dropped++
		d.fate = (d.fate ^ (uint64(uint32(p.Flow))<<1 | 1)) * 1099511628211
		d.free = append(d.free, p)
	})
	return d
}

func (d *driver) packet() *taq.Packet {
	if n := len(d.free); n > 0 {
		p := d.free[n-1]
		d.free = d.free[:n-1]
		return p
	}
	return new(taq.Packet)
}

// do runs one operation on flow index fi (flow id fl). With a tracer it
// also times each call into the middlebox as a span under parent.
func (d *driver) do(tr *tracer, parent int32, op uint8, fi int, fl taq.FlowID, draw uint64) {
	switch op {
	case opDequeue:
		for k := burstOf(draw); k > 0; k-- {
			t0 := tr.clock()
			d.dequeue()
			tr.leaf(spanDequeue, parent, t0)
		}
	case opAck:
		d.ack = taq.Packet{Flow: fl, Pool: poolOf(fl), Kind: taq.KindAck, CumAck: int(d.seqs[fi]), Size: 40}
		t0 := tr.clock()
		d.mb.ObserveReverse(&d.ack)
		tr.leaf(spanReverse, parent, t0)
	default:
		p := d.make(op, fi, fl)
		before := d.dropped
		t0 := tr.clock()
		d.mb.Enqueue(p)
		// Split by whether the drop hook fired during the call: an
		// overflow pays for victim selection on top of classification.
		if d.dropped != before {
			tr.leaf(spanEnqueueDrop, parent, t0)
		} else {
			tr.leaf(spanEnqueueAccept, parent, t0)
		}
		d.offered++
	}
}

func (d *driver) make(op uint8, fi int, fl taq.FlowID) *taq.Packet {
	p := d.packet()
	*p = taq.Packet{Flow: fl, Pool: poolOf(fl), Kind: taq.KindData, Size: 500, Enqueued: d.now()}
	switch op {
	case opSyn:
		p.Kind, p.Size = taq.KindSyn, 40
	case opData:
		p.Seq = int(d.seqs[fi])
		d.seqs[fi]++
	case opRtx:
		p.Retransmit = true
		if s := int(d.seqs[fi]) - 1; s > 0 {
			p.Seq = s
		}
	}
	return p
}

func (d *driver) dequeue() {
	p := d.mb.Dequeue()
	if p == nil {
		return
	}
	d.served++
	d.fate = (d.fate ^ uint64(uint32(p.Flow))<<1) * 1099511628211
	d.free = append(d.free, p)
}

// poolOf groups eight consecutive flow ids into a pool (4096 flows
// make 512 pools).
func poolOf(fl taq.FlowID) taq.PoolID { return taq.PoolID(fl / 8) }

const (
	mboxStep   = 10 * taq.Millisecond
	opsPerStep = 400
	hotWindow  = 4096
	// scanEvery is DefaultMiddleboxConfig's ScanInterval in steps: the
	// RunUntil calls that cross it run the tracker's scan tick.
	scanEvery = 10
)

func millionFlows(scale float64) int {
	if scale >= 1 {
		return 1_000_000
	}
	return max(int(1_000_000*scale), 4*hotWindow)
}

// mbox is the bare forwarding workload: no TCP, no link; the harness
// steps a sim engine 10 ms at a time and plays 400 operations of the
// mix per step (28 000 packets offered per simulated second). A closed
// loop: one generator, the next operation issued when the last returns.
type mbox struct {
	flows   int
	simSecs float64
	// spread sends half the operations uniformly over all flows and
	// half into a sliding hot window, and keeps one middlebox across
	// repetitions (a million flows cannot be rebuilt per repetition).
	spread bool
	// ageSecs is how long build runs the mix over the pre-populated
	// table: one FlowExpiry, less only in shrunken test runs.
	ageSecs float64
	// slideSteps is how many steps the hot window would take to cross
	// the id space: eight runs' worth, so that within one run the flows
	// the window creates as it moves stay a few percent of the table
	// and the repetitions see the same population.
	slideSteps int
	// discipline replaces the middlebox (the null-discipline proof that
	// the generator itself allocates nothing).
	discipline func(*taq.Engine) middlebox

	eng          *taq.Engine
	mb           middlebox
	drv          *driver
	rnd          rng
	stepsDone    int
	bytesPerFlow float64
}

func newMbox(flows int, simSecs float64, spread bool) *mbox {
	w := &mbox{flows: flows, simSecs: simSecs, spread: spread, ageSecs: 60 * min(float64(flows)/1_000_000, 1)}
	w.slideSteps = w.steps() * timedReps * 16
	return w
}

func (w *mbox) steps() int { return max(int(w.simSecs/mboxStep.Seconds()), 1) }

func (w *mbox) fresh(seed int64) {
	w.close()
	w.eng = taq.NewEngine(seed)
	if w.discipline != nil {
		w.mb = w.discipline(w.eng)
	} else {
		cfg := taq.DefaultMiddleboxConfig(10*taq.Mbps, 256)
		cfg.PoolFairShare = true
		mb := taq.NewMiddlebox(w.eng, cfg)
		mb.Start()
		w.mb = mb
	}
	w.drv = newDriver(w.mb, w.eng.Now, w.flows)
	w.rnd = rng{s: uint64(seed)}
	w.stepsDone = 0
}

func (w *mbox) close() {
	if mb, ok := w.mb.(*taq.Middlebox); ok {
		mb.Stop()
	}
}

func (w *mbox) tracked() int {
	mb, ok := w.mb.(*taq.Middlebox)
	if !ok {
		return 0
	}
	n := 0
	for _, c := range mb.StateCensus() {
		n += c
	}
	return n
}

// build brings the spread workload's flow table to what a middlebox
// that has long been running would hold. First it pre-populates it. The
// uniform half of the traffic touches a flow every flows÷14 000 seconds
// on average (71 s at a million flows), exponentially distributed, and
// a flow untouched for FlowExpiry is evicted: so only flows whose last
// touch is under 60 s old exist (57 % of a million), and their ages
// follow that exponential.
func (w *mbox) build(seed int64, ref *hostRef) {
	if !w.spread {
		return
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w.fresh(seed)

	const expiry = 60.0 // seconds: DefaultMiddleboxConfig's FlowExpiry
	touchesPerSec := float64(opsPerStep) / mboxStep.Seconds() / 2 * 0.7
	meanGap := float64(w.flows) / touchesPerSec
	steps := int(expiry / mboxStep.Seconds())
	// Flow indexes are handed out along a fixed permutation, so age is
	// not a function of id.
	const stride = 1_000_003
	next := 0
	for s := 0; s < steps; s++ {
		w.eng.RunUntil(taq.Time(s) * mboxStep)
		older := expiry - float64(s)*mboxStep.Seconds()
		younger := older - mboxStep.Seconds()
		share := math.Exp(-younger/meanGap) - math.Exp(-older/meanGap)
		for n := int(float64(w.flows)*share + w.rnd.float()); n > 0 && next < w.flows; n-- {
			fi := next * stride % w.flows
			w.drv.do(nil, -1, opData, fi, taq.FlowID(fi+1), 0)
			w.drv.dequeue()
			next++
		}
		ref.maybe()
	}
	w.eng.RunUntil(taq.Time(steps) * mboxStep)

	// Then one FlowExpiry of the mix itself. The table above has the
	// right flows of the right ages, but laid out in creation order;
	// only after every one of them has been touched, or has expired
	// and been re-created, at random do the store, the index and the
	// deadline heaps look (and cost) as they do on a long-running
	// middlebox. Packets per second halve over this stretch.
	for s := int(w.ageSecs / mboxStep.Seconds()); s > 0; s-- {
		w.step(nil, -1, nil)
		ref.maybe()
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if t := w.tracked(); t > 0 && after.HeapAlloc > before.HeapAlloc {
		w.bytesPerFlow = float64(after.HeapAlloc-before.HeapAlloc) / float64(t)
	}
}

func (w *mbox) rep(sub int64, tr *tracer) repOut {
	if w.spread {
		w.rnd = rng{s: uint64(sub)}
	} else {
		w.fresh(sub)
	}
	d := w.drv
	off0, srv0, drp0 := d.offered, d.served, d.dropped
	o := repOut{qlen0: w.mb.Len()}
	events0 := w.eng.Processed
	steps := w.steps()

	m := startMeter()
	rep := tr.begin(spanRep, -1)
	for s := 0; s < steps; s++ {
		// Traced, one step in 64 times every call it makes; the others
		// time only the engine advance.
		var opTr *tracer
		if s%64 == 0 {
			opTr = tr
		}
		w.step(tr, rep, opTr)
		m.ref.maybe()
	}
	tr.end(rep)
	m.stop(&o)

	o.offered, o.served, o.dropped = d.offered-off0, d.served-srv0, d.dropped-drp0
	o.qlen = w.mb.Len()
	o.events = w.eng.Processed - events0
	o.simSecs = float64(steps) * mboxStep.Seconds()
	o.tracked = w.tracked()
	o.attempted = o.offered
	dg := newDigest()
	dg.u64(d.offered)
	dg.u64(d.dropped)
	dg.u64(d.served)
	dg.u64(d.fate)
	dg.u64(uint64(o.tracked))
	o.digest = dg.h
	return o
}

// step advances the engine 10 ms and plays one step's operations.
func (w *mbox) step(tr *tracer, rep int32, opTr *tracer) {
	step := tr.begin(spanStep, rep)
	kind := spanRunUntil
	if (w.stepsDone+1)%scanEvery == 0 {
		kind = spanScanTick
	}
	t0 := tr.clock()
	w.eng.RunUntil(w.eng.Now() + mboxStep)
	tr.leaf(kind, step, t0)

	lo := w.windowLo()
	for k := 0; k < opsPerStep; k++ {
		draw := w.rnd.next()
		fi := w.pick(draw>>8, lo)
		w.drv.do(opTr, step, opOfDraw[draw%10], fi, taq.FlowID(fi+1), draw>>40)
	}
	tr.end(step)
	w.stepsDone++
}

// windowLo is the low edge of the sliding hot window.
func (w *mbox) windowLo() int {
	if !w.spread {
		return 0
	}
	return (w.flows - hotWindow) * min(w.stepsDone, w.slideSteps) / w.slideSteps
}

// pick chooses the flow index an operation acts on.
func (w *mbox) pick(draw uint64, lo int) int {
	if !w.spread || draw&1 != 0 {
		return int(draw>>1) % w.flows
	}
	return lo + int(draw>>1)%hotWindow
}
