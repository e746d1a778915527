package tcp

import (
	"math/rand"
	"testing"
)

// ringModel drives a seqRing and a plain map shadow through the same
// operations and compares every readable slot after each one.
type ringModel struct {
	t      *testing.T
	ring   seqRing[int]
	shadow map[int]int
	base   int
	span   int // widest window ever written, for the capacity bound
}

func (m *ringModel) set(seq, v int) {
	*m.ring.slot(seq) = v
	if v == 0 {
		delete(m.shadow, seq)
	} else {
		m.shadow[seq] = v
	}
	m.span = max(m.span, seq-m.base+1)
	m.check()
}

func (m *ringModel) advance(to int) {
	m.ring.advance(to)
	for seq := range m.shadow {
		if seq < to {
			delete(m.shadow, seq)
		}
	}
	m.base = to
	m.check()
}

func (m *ringModel) check() {
	m.t.Helper()
	n := len(m.ring.buf)
	if n&(n-1) != 0 || n > max(seqRingMinCap, 2*m.span) {
		m.t.Fatalf("capacity %d: want a power of two no more than twice the widest window %d", n, m.span)
	}
	live := 0
	for seq := m.base - 3; seq < m.base+n+3; seq++ {
		if got, want := m.ring.get(seq), m.shadow[seq]; got != want {
			m.t.Fatalf("base %d cap %d: get(%d) = %d, shadow has %d", m.base, n, seq, got, want)
		}
		if m.shadow[seq] != 0 {
			live++
		}
	}
	if live != len(m.shadow) {
		m.t.Fatalf("base %d cap %d: %d shadow entries lie outside the ring's window", m.base, n, len(m.shadow)-live)
	}
}

func TestSeqRingMatchesMapModel(t *testing.T) {
	m := &ringModel{t: t, shadow: map[int]int{}}
	m.check() // the zero ring reads as empty

	// Growth while the live window straddles the wrap point: with
	// capacity 8 and base 5 the entries 5..12 sit at indexes 5,6,7,0..4.
	m.set(0, 1)
	m.advance(5)
	for seq := 5; seq <= 12; seq++ {
		m.set(seq, seq)
	}
	m.set(13, 13) // doubles to 16: every entry moves to seq&15
	m.set(5+16, 21)
	// The base advancing past every entry, then far past the capacity.
	m.advance(22)
	m.advance(1000)
	// A MaxWindow-256 window, then a SACK run far beyond it.
	for seq := 1000; seq < 1256; seq++ {
		m.set(seq, seq)
	}
	m.set(1000+5000, 7)
	m.advance(1000 + 5000)
	m.advance(1000 + 5001)

	rng := rand.New(rand.NewSource(18))
	for op := 0; op < 12000; op++ {
		width := 1 + m.span
		if width > 300 {
			width = 300
		}
		switch k := rng.Intn(10); {
		case k < 5: // set, mostly inside the window, sometimes well beyond
			off := rng.Intn(width + 2)
			if rng.Intn(50) == 0 {
				off += rng.Intn(600)
			}
			m.set(m.base+off, 1+rng.Intn(1<<20))
		case k < 7: // clear
			m.set(m.base+rng.Intn(width), 0)
		case k < 9: // the cumulative ack moves a few segments
			m.advance(m.base + rng.Intn(4))
		default: // ... or jumps, now and then past everything held
			step := rng.Intn(width)
			if rng.Intn(10) == 0 {
				step += 2 * len(m.ring.buf)
			}
			m.advance(m.base + step)
		}
		if rng.Intn(500) == 0 {
			// A fresh connection: the ring starts over at its minimum.
			m.ring, m.shadow, m.span = seqRing[int]{base: m.base}, map[int]int{}, 0
		}
	}
}
