package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A workload is one set of inputs the benchmark runs. build makes the
// state that outlives a repetition (generated traces, a populated flow
// table, a running shard bank) from the run seed, giving ref its turn if
// that takes long; rep runs one repetition from a sub-seed and meters
// its hot section; close releases what build started.
type workload interface {
	build(seed int64, ref *hostRef)
	rep(sub int64, tr *tracer) repOut
	close()
}

// repOut is what one repetition reports: the metered hot section, the
// packet counts taken at the discipline interface, and the simulated
// statistics the digest and the quality metrics are made of.
type repOut struct {
	wall, cpu float64 // seconds of the timed section
	mallocs   uint64
	heap      float64 // MB live after the section, program state still held
	// slowdown is how slow the host was during the section, by the
	// reference kernel (1: the sizing host at its quietest); refSpent
	// the seconds the kernel took.
	slowdown, refSpent float64

	offered, served, dropped uint64
	qlen0, qlen              int // queued before and after
	// inTx is 1 when the link may hold one dequeued packet in
	// serialization that no counter outside it shows yet.
	inTx uint64

	events   uint64 // engine callbacks in the timed section
	simSecs  float64
	digest   uint64
	noDigest bool // wall-clock workloads have no reproducible digest

	jfi                   float64
	fcts                  []float64
	timeouts, repTimeouts uint64
	util                  float64
	tracked               int
	imbalance             float64 // max ÷ mean shard arrivals

	attempted, failed uint64
	errs              []string
}

func (o *repOut) errf(format string, a ...any) { o.errs = append(o.errs, fmt.Sprintf(format, a...)) }

// conserve is the check every repetition makes: each packet offered to
// the discipline was served, dropped, or is still queued.
func (o *repOut) conserve() {
	in, out := o.offered+uint64(o.qlen0), o.served+o.dropped+uint64(o.qlen)
	if in < out || in-out > o.inTx {
		o.errf("conservation: offered %d + queued before %d != served %d + dropped %d + queued %d", o.offered, o.qlen0, o.served, o.dropped, o.qlen)
	}
}

// meter brackets a timed section. The forced GC before it means a
// repetition starts from a clean heap, so GC work inside the section is
// work the section's own allocations caused. The section calls
// ref.maybe() at its natural boundaries; what the reference kernel took
// is taken back out of the section's wall and CPU time.
type meter struct {
	t0      time.Time
	cpu0    float64
	mallocs uint64
	ref     *hostRef
}

func startMeter() meter {
	ref := newHostRef()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ref.start()
	return meter{t0: time.Now(), cpu0: cpuSeconds(), mallocs: ms.Mallocs, ref: ref}
}

func (m meter) stop(o *repOut) {
	m.ref.finish()
	spent := m.ref.spent.Seconds()
	o.wall = time.Since(m.t0).Seconds() - spent
	o.cpu = cpuSeconds() - m.cpu0 - spent // the kernel is one busy thread
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mallocs = ms.Mallocs - m.mallocs
	o.slowdown, o.refSpent = m.ref.slowdown(), spent
	// The caller still holds the network or middlebox it ran, so this is
	// the program's live state, not garbage awaiting collection.
	o.heap = heapMB() - m.ref.tableMB()
}

// cpuSeconds is the process's user+system CPU time: against wall time
// it separates "cheaper" from "more parallel".
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// value is one measured metric: the median over its samples, the
// quartiles and the sample count, and the samples themselves so that
// -compare can tell "every rep of one side beats every rep of the
// other" from overlapping noise.
type value struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Reps   []float64 `json:"reps,omitempty"`
	Allocs *float64  `json:"allocs_per_op,omitempty"`
}

func single(name string, v float64) value {
	return value{Name: name, Value: v, Q1: v, Q3: v, N: 1}
}

func median(name string, xs []float64) value {
	if len(xs) == 0 {
		return single(name, 0)
	}
	return value{Name: name, Value: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs), Reps: xs}
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// wlResult is one workload's outcome in a run.
type wlResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Digest    string   `json:"sim_digest,omitempty"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []value  `json:"metrics"`
}

func (r *wlResult) metric(name string) (value, bool) { return find(r.Metrics, name) }

func find(vs []value, name string) (value, bool) {
	for _, m := range vs {
		if m.Name == name {
			return m, true
		}
	}
	return value{}, false
}

// subSeed derives repetition i's seed from the run seed. The warm-up
// repetition takes the last timed repetition's index, so the two must
// produce the same sim_digest.
func subSeed(seed int64, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", seed, i)
	return int64(h.Sum64() >> 1)
}

// setupBuilds is how many times a run builds its workload state; the
// set-up metric takes the median so one slow page-fault storm does not
// decide it.
const setupBuilds = 3

// setUp is everything before the first timed operation: the workload's
// state built `builds` times over (keeping the last; the median time
// counts) and the warm-up repetition, at the last timed repetition's
// sub-seed. It returns the set-up time normalised like the rates, and
// as the wall clock read it.
func (r *wlResult) setUp(spec wlSpec, seed int64, scale float64, builds int) (w workload, warm repOut, setup, setupWall float64) {
	var norm, wall []float64
	for i := 0; i < builds; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		w = spec.make(scale)
		ref := newHostRef()
		ref.start()
		t0 := time.Now()
		w.build(seed, ref)
		ref.finish()
		took := (time.Since(t0) - ref.spent).Seconds()
		wall = append(wall, took)
		norm = append(norm, took/ref.slowdown())
	}
	t0 := time.Now()
	warm = w.rep(subSeed(seed, timedReps-1), nil)
	warmWall := time.Since(t0).Seconds() - warm.refSpent
	r.absorb("warm-up", &warm)
	return w, warm, quantile(norm, 0.5) + warmWall/warm.slowdown, quantile(wall, 0.5) + warmWall
}

// runUntraced is the end-to-end run: set-up, one warm-up repetition,
// then the timed repetitions with nothing of the harness's tracing on.
func runUntraced(spec wlSpec, seed int64, scale float64) wlResult {
	res := wlResult{Workload: spec.name, Seed: seed, Correct: true}
	builds := spec.builds
	if builds == 0 {
		builds = setupBuilds
	}
	w, warm, setup, setupWall := res.setUp(spec, seed, scale, builds)
	defer w.close()
	last := timedReps - 1

	outs := make([]repOut, timedReps)
	res.runReps(w, outs, 0, seed, nil)
	res.checkDigest(spec, &warm, &outs[last])
	if spec.regime != nil {
		spec.regime(&res, outs, scale)
	}

	res.Metrics = append(res.Metrics, single("setup_s", setup), single("setup_wall_s", setupWall))
	res.Metrics = append(res.Metrics, endToEnd(outs)...)
	res.Metrics = append(res.Metrics, quality(outs, &res)...)
	res.withUnits()
	return res
}

// runReps runs repetitions from..len(outs)-1 into outs.
func (r *wlResult) runReps(w workload, outs []repOut, from int, seed int64, tr *tracer) {
	for i := from; i < len(outs); i++ {
		outs[i] = w.rep(subSeed(seed, i), tr)
		r.absorb(fmt.Sprintf("rep %d", i), &outs[i])
	}
}

// checkDigest records the run's sim_digest — that of the repetition at
// the warm-up's sub-seed — and, where every repetition rebuilds its
// state, holds it to the warm-up's.
func (r *wlResult) checkDigest(spec wlSpec, warm, again *repOut) {
	if warm.noDigest {
		return
	}
	r.Digest = fmt.Sprintf("%016x", again.digest)
	if spec.repeatable && warm.digest != again.digest {
		r.fail(again.attempted, "sim_digest of warm-up %016x != %016x of the repetition at the same sub-seed", warm.digest, again.digest)
	}
}

// absorb folds one repetition's operation counts and check failures
// into the run: a repetition whose checks fail counts all its
// operations as failed.
func (r *wlResult) absorb(label string, o *repOut) {
	o.conserve()
	r.Attempted += o.attempted
	r.Failed += o.failed
	if len(o.errs) > 0 {
		r.Failed += o.attempted - o.failed
		r.Correct = false
		for _, e := range o.errs {
			r.Errors = append(r.Errors, label+": "+e)
		}
	}
}

func (r *wlResult) fail(ops uint64, format string, a ...any) {
	r.Correct = false
	r.Failed += ops
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
}

// endToEnd turns the timed repetitions into the per-packet rates.
func endToEnd(outs []repOut) []value {
	var pps, cpu, normPPS, normCPU, slow, allocs, heap []float64
	for i := range outs {
		o := &outs[i]
		n := float64(o.offered)
		if n == 0 || o.wall == 0 {
			continue
		}
		pps = append(pps, n/o.wall)
		cpu = append(cpu, o.cpu*1e9/n)
		// What the repetition would have read on the quiet host.
		normPPS = append(normPPS, n/o.wall*o.slowdown)
		normCPU = append(normCPU, o.cpu*1e9/n/o.slowdown)
		slow = append(slow, o.slowdown)
		allocs = append(allocs, float64(o.mallocs)/n)
		heap = append(heap, o.heap)
	}
	return []value{
		median("pkts_per_wall_s", pps), median("cpu_ns_per_pkt", cpu),
		median("norm_pkts_per_s", normPPS), median("norm_cpu_ns_per_pkt", normCPU), median("host_slowdown", slow),
		median("allocs_per_pkt", allocs), median("heap_mb", heap),
	}
}

// quality is the simulated side of the ledger: fairness, completion
// times and failures. For a speed-only change none of it may move.
func quality(outs []repOut, r *wlResult) []value {
	var jfi, fcts []float64
	for i := range outs {
		if outs[i].jfi > 0 {
			jfi = append(jfi, outs[i].jfi)
		}
		fcts = append(fcts, outs[i].fcts...)
	}
	j := median("short_jfi", jfi)
	j.Value = mean(jfi)
	p50 := single("fct_s_p50", quantile(fcts, 0.5))
	p99 := single("fct_s_p99", quantile(fcts, 0.99))
	p50.N, p99.N = len(fcts), len(fcts)
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	return []value{j, p50, p99, single("ops_failed_frac", frac)}
}

// digest is FNV-1a over the values a repetition's outcome is made of.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= 1099511628211
		v >>= 8
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
