package core

import (
	"math"
	"math/rand"
	"testing"

	"taq/internal/sim"
)

// rollLoop is roll as it stood before the fast-forward — one epoch per
// iteration — kept as the reference for roll parity. It returns how
// many epochs it closed and how many of those closings still moved the
// rate (the decay ends at a fixed point: zero, or one of the smallest
// denormals, which 0.875 rounds back to themselves).
func rollLoop(f *flowInfo, now sim.Time) (closings, multiplies int) {
	for now >= f.epochStart+f.epoch {
		seconds := f.epoch.Seconds()
		if seconds > 0 {
			inst := f.bytes * 8 / seconds
			next := 0.875*f.rateEWMA + 0.125*inst
			if next != f.rateEWMA {
				multiplies++
			}
			f.rateEWMA = next
		}
		f.prevNewPkts = f.newPkts
		f.prevDrops = f.drops
		f.newPkts, f.rtxPkts, f.drops, f.bytes = 0, 0, 0, 0
		f.epochStart += f.epoch
		f.epochs++
		if f.protectEpochs > 0 {
			f.protectEpochs--
		}
		closings++
	}
	return
}

func catchUpLoop(f *flowInfo, x sim.Time) {
	if x <= f.rolledTo {
		return
	}
	f.rolledTo = x
	rollLoop(f, x)
}

func sameRecord(a, b *flowInfo) bool {
	return *a == *b &&
		math.Float64bits(a.rateEWMA) == math.Float64bits(b.rateEWMA) &&
		math.Float64bits(a.bytes) == math.Float64bits(b.bytes)
}

// TestRollFastForwardMatchesLoop drives seeded random records through
// catchUp and through the reference loop side by side: spans of 0, 1,
// 2, 3, 10 and a million epochs, protection counters above and below
// the span, rates whose decay ends part-way, and an epoch that
// shrinks or grows between calls (so some calls fall behind rolledTo
// and must not roll at all). Every field must agree, the rate bit for
// bit.
func TestRollFastForwardMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	spans := []sim.Time{0, 1, 2, 3, 10, 1_000_000}
	rates := []float64{0, 5e-324, 1e-300, 3.7, 9_600, 1e7, 1e10}
	long := 0
	for rec := 0; rec < 4000; rec++ {
		var a flowInfo
		a.epoch = 50*sim.Microsecond + sim.Time(rng.Int63n(int64(2*sim.Second)))
		a.epochStart = sim.Time(rng.Int63n(int64(10 * sim.Second)))
		a.rolledTo = a.epochStart + sim.Time(rng.Int63n(int64(a.epoch)))
		a.rateEWMA = rates[rng.Intn(len(rates))] * (1 + rng.Float64())
		a.epochs = int32(rng.Intn(1000))
		b := a
		now := a.rolledTo
		for call := 0; call < 4; call++ {
			// What a packet (or a drop) between two catch-ups leaves.
			a.newPkts += int32(rng.Intn(4))
			a.rtxPkts += int32(rng.Intn(2))
			a.drops += int32(rng.Intn(3))
			a.bytes += float64(rng.Intn(3) * 500)
			a.protectEpochs = int32(rng.Intn(6))
			b.newPkts, b.rtxPkts, b.drops, b.bytes, b.protectEpochs =
				a.newPkts, a.rtxPkts, a.drops, a.bytes, a.protectEpochs

			k := spans[rng.Intn(len(spans))]
			if k == 1_000_000 {
				if long++; long > 40 {
					k = 10
				}
			}
			x := now + k*a.epoch + sim.Time(rng.Int63n(int64(a.epoch)))
			if rng.Intn(8) == 0 {
				x = now - sim.Time(rng.Int63n(int64(a.epoch))) // behind rolledTo: a no-op
			}
			a.catchUp(x)
			catchUpLoop(&b, x)
			if !sameRecord(&a, &b) {
				t.Fatalf("record %d call %d: catchUp(%d) over %d epochs diverged\nfast %+v\nloop %+v", rec, call, x, k, a, b)
			}
			if x > now {
				now = x
			}
			// The estimate moves after a catch-up, as in observeReverse.
			switch rng.Intn(3) {
			case 0:
				a.epoch = a.epoch/2 + sim.Microsecond
			case 1:
				a.epoch += sim.Time(rng.Int63n(int64(a.epoch)))
			}
			b.epoch = a.epoch
		}
	}
	if long < 40 {
		t.Fatalf("only %d million-epoch spans drawn", long)
	}
}

// TestRollBoundedAfterLongSilence is the two-way-mode hazard: the
// epoch there is downRTT+upRTT with no floor, so one packet of a flow
// silent for 60 s under a 50 µs epoch closed 1.2 M epochs one at a
// time. The fast-forward must reach the loop's result in the few
// thousand multiplies it takes the rate to decay to its fixed point —
// counted through the reference, not timed — and a span no loop could
// walk must return at all.
func TestRollBoundedAfterLongSilence(t *testing.T) {
	start := flowInfo{
		epoch: 50 * sim.Microsecond, rateEWMA: 1e7, bytes: 1500,
		newPkts: 3, drops: 1, protectEpochs: 2, epochs: 7,
	}
	fast, loop := start, start
	now := 60 * sim.Second
	closings, multiplies := rollLoop(&loop, now)
	if closings != 1_200_000 {
		t.Fatalf("reference closed %d epochs, want 1.2 M", closings)
	}
	if multiplies > 8192 {
		t.Fatalf("the rate kept moving for %d closings; the bound below is stale", multiplies)
	}
	fast.roll(now)
	if !sameRecord(&fast, &loop) {
		t.Fatalf("60 s at a 50 µs epoch diverged\nfast %+v\nloop %+v", fast, loop)
	}

	// 10^13 epochs: only a roll whose work is bounded by the decay, not
	// by the span, comes back before the test binary's deadline. The
	// expectation is the reference after the decay plus closed forms.
	huge := start
	huge.epoch = sim.Nanosecond
	want := huge
	const k = 10_000_000_000_000
	rollLoop(&want, 8192*sim.Nanosecond)
	if 0.875*want.rateEWMA != want.rateEWMA {
		t.Fatalf("reference rate %g is still decaying after 8192 epochs", want.rateEWMA)
	}
	want.epochStart = k * sim.Nanosecond
	want.epochs = start.epochs + int32(k%(1<<32))
	huge.roll(k * sim.Nanosecond)
	if !sameRecord(&huge, &want) {
		t.Fatalf("10^13 epochs diverged\nfast %+v\nwant %+v", huge, want)
	}
}
