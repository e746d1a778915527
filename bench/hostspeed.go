package main

import "time"

// The sizing host is a shared two-vCPU virtual machine with no hardware
// counters, and its effective speed moves by 10-30 % from one tenth of
// a second to the next and for minutes at a time; every workload slows
// together, and no statistic taken over a run's own repetitions removes
// that. So while a repetition runs, the harness stops every few
// milliseconds to time a short chunk of a reference kernel of its own,
// and reports, beside the raw rates, rates normalised by how slow the
// kernel ran in that same stretch of time. The kernel is frozen and
// belongs to the harness, not to the program under test: no change to
// the program can move it.
//
// The kernel is an open-addressed table of 64-byte slots, one megabyte
// in all, probed, filled and emptied at random: cache-missing loads,
// unpredictable branches, no allocation. Sized so: of the kernels tried
// (pure arithmetic, pointer chasing, Go maps with and without
// allocation) it tracked the workloads best, slowing by the same factor
// as they do (elasticity 0.94-0.98, correlation 0.86-0.91 over half-second
// repetitions), where arithmetic alone tracked them hardly at all.

type refSlot struct {
	key  uint64
	used bool
	val  [6]uint64
}

const (
	refSlots = 1 << 14
	// refChunkOps operations take about 0.8 ms, and a chunk runs once
	// the workload has had refEvery to itself: the kernel is a sixth of
	// a repetition's time, close enough in time to the work it measures
	// to see the same interference.
	refChunkOps = 100_000
	refEvery    = 5 * time.Millisecond
	// refNsPerOp is what one kernel operation takes on the sizing host
	// at its quietest; a slowdown of 1 means "as fast as that".
	refNsPerOp = 7.0
)

// hostRef is one goroutine's reference kernel and its account of the
// time spent in it.
type hostRef struct {
	table   []refSlot
	r       rng
	lastEnd time.Time
	spent   time.Duration
	ops     int
}

func newHostRef() *hostRef { return &hostRef{table: make([]refSlot, refSlots), r: rng{s: 9}} }

// tableMB is what the kernel's table adds to the live heap.
func (h *hostRef) tableMB() float64 { return float64(len(h.table)) * 64 / 1e6 }

// start opens a repetition's account.
func (h *hostRef) start() {
	h.spent, h.ops = 0, 0
	h.lastEnd = time.Now()
}

// maybe runs one chunk if the workload has run refEvery since the last.
// Workloads call it at every natural boundary (a simulation slice, a
// 10 ms step, a posted batch); when a chunk runs depends on the clock,
// which is why the kernel may touch nothing the simulation can see.
func (h *hostRef) maybe() {
	t0 := time.Now()
	if t0.Sub(h.lastEnd) < refEvery {
		return
	}
	mask := uint64(len(h.table) - 1)
	for i := 0; i < refChunkOps; i++ {
		k := h.r.next()&(refSlots/2-1) + 1
		at := (k * 0x9e3779b97f4a7c15) >> 50
		for j := uint64(0); j < 8; j++ {
			s := &h.table[(at+j)&mask]
			if !s.used {
				s.used, s.key = true, k
				s.val[0] = k
				break
			}
			if s.key == k {
				s.val[k&3] += k
				if k&7 == 0 {
					s.used = false
				}
				break
			}
		}
	}
	h.lastEnd = time.Now()
	h.spent += h.lastEnd.Sub(t0)
	h.ops += refChunkOps
}

// finish closes a repetition's account: one that was shorter than
// refEvery (a test run) gets its one chunk after the fact.
func (h *hostRef) finish() {
	if h.ops == 0 {
		h.lastEnd = time.Time{}
		h.maybe()
	}
}

// slowdown is the kernel's time per operation over the repetition ÷
// refNsPerOp.
func (h *hostRef) slowdown() float64 {
	return float64(h.spent) / float64(h.ops) / refNsPerOp
}
