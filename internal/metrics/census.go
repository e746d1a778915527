package metrics

import (
	"taq/internal/packet"
	"taq/internal/sim"
)

// Census tallies, per epoch (RTT), how many data packets each flow put
// through the bottleneck, building the empirical "k packets sent per
// epoch" distribution that Fig 6 compares against the Markov model's
// stationary distribution. Classes above MaxClass are clamped (the
// model is truncated at Wmax).
type Census struct {
	MaxClass int
	// counts[f] is flow f's packets in the current epoch, or -1 for an
	// id below the largest registered one that was never registered.
	counts []int
	hist   []uint64 // by class 0..MaxClass
	epochs uint64
}

// NewCensus creates a census clamping classes at maxClass (the paper
// uses Wmax = 6, displaying classes 0..5).
func NewCensus(maxClass int) *Census {
	if maxClass < 1 {
		maxClass = 6
	}
	return &Census{MaxClass: maxClass, hist: make([]uint64, maxClass+1)}
}

// Register declares a flow so that its silent epochs are counted. Flow
// ids must not be negative.
func (c *Census) Register(f packet.FlowID) {
	for int(f) >= len(c.counts) {
		c.counts = append(c.counts, -1)
	}
	if c.counts[f] < 0 {
		c.counts[f] = 0
	}
}

// Observe records one data packet of flow f crossing the bottleneck,
// registering f if it was not.
func (c *Census) Observe(f packet.FlowID) {
	c.Register(f)
	c.counts[f]++
}

// Roll closes the current epoch: every registered flow contributes one
// observation of its packet count class, and counters reset. The
// caller schedules Roll once per RTT.
func (c *Census) Roll() {
	for f, n := range c.counts {
		if n < 0 {
			continue
		}
		c.hist[min(n, c.MaxClass)]++
		c.counts[f] = 0
		c.epochs++
	}
}

// Epochs returns the total flow-epochs observed.
func (c *Census) Epochs() uint64 { return c.epochs }

// Distribution returns the empirical probability of each class 0..MaxClass.
func (c *Census) Distribution() map[int]float64 {
	out := make(map[int]float64, c.MaxClass+1)
	if c.epochs == 0 {
		return out
	}
	for k := 0; k <= c.MaxClass; k++ {
		out[k] = float64(c.hist[k]) / float64(c.epochs)
	}
	return out
}

// ScheduleRolls arranges for the census to roll every epoch until the
// runner stops (simulations end by RunUntil, so the self-rescheduling
// timer is harmless).
func (c *Census) ScheduleRolls(run sim.Runner, epoch sim.Time) {
	var tick func()
	tick = func() {
		c.Roll()
		run.After(epoch, tick)
	}
	run.After(epoch, tick)
}
