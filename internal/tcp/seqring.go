package tcp

// seqRingMinCap is the first allocation's slot count: a small-packet-
// regime window is one to four segments, so most flows never grow.
const seqRingMinCap = 8

// seqRing holds one T per segment number of the sliding window
// [base, base+len(buf)), seq at buf[seq&(len(buf)-1)]. Every slot the
// window does not cover reads as the zero T, so an endpoint's
// per-segment state needs no hash map: its keys are always a
// contiguous run above the cumulative ack. The zero seqRing is empty
// and allocates on the first slot call.
type seqRing[T any] struct {
	buf  []T // length zero or a power of two
	base int
}

// get returns seq's value, the zero T outside the window.
func (r *seqRing[T]) get(seq int) T {
	if uint(seq-r.base) >= uint(len(r.buf)) {
		var zero T
		return zero
	}
	return r.buf[seq&(len(r.buf)-1)]
}

// slot returns seq's slot for writing, doubling the ring until the
// window reaches seq. seq must not lie below base.
func (r *seqRing[T]) slot(seq int) *T {
	if uint(seq-r.base) >= uint(len(r.buf)) {
		r.grow(seq)
	}
	return &r.buf[seq&(len(r.buf)-1)]
}

// grow re-homes the live window into a ring large enough for seq: a
// slot's index depends on the mask, so entries move, not just copy.
func (r *seqRing[T]) grow(seq int) {
	if seq < r.base {
		panic("tcp: seqRing slot below base")
	}
	n := max(len(r.buf), seqRingMinCap)
	for seq-r.base >= n {
		n *= 2
	}
	buf := make([]T, n)
	for s := r.base; s < r.base+len(r.buf); s++ {
		buf[s&(n-1)] = r.buf[s&(len(r.buf)-1)]
	}
	r.buf = buf
}

// advance moves base up to to, zeroing every slot the window leaves
// behind so it reads as empty when the window reaches it again.
func (r *seqRing[T]) advance(to int) {
	if to-r.base >= len(r.buf) {
		clear(r.buf)
	} else {
		var zero T
		for s := r.base; s < to; s++ {
			r.buf[s&(len(r.buf)-1)] = zero
		}
	}
	r.base = to
}
