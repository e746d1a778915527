// Package markov implements the paper's idealized Markov models of TCP
// in small packet regimes (§3.1): the partial model of Fig 4 with the
// aggregated repetitive-timeout buffer state b*, and the full model of
// Fig 5 with explicit backoff stages. Both are parameterized by a
// single packet-loss probability p and yield the stationary
// distribution of a flow across window/timeout states, the grouped
// "k packets sent per epoch" distribution validated in Fig 6, the
// closed-form expected idle time 1/(1−2p), and the timeout tipping
// point that motivates TAQ's admission-control threshold (§4.3).
package markov

import (
	"errors"
	"fmt"
	"math"
)

// Chain is a finite discrete-time Markov chain with labeled states.
// Each transition corresponds to one epoch (RTT) of the modeled flow.
type Chain struct {
	// Labels names each state (e.g. "S3", "b*", "R2").
	Labels []string
	// P is the row-stochastic transition matrix.
	P [][]float64
	// Group[i] classifies state i by the number of packets the flow
	// transmits during an epoch spent in that state: 0 for buffer
	// (silent) states, 1 for retransmit states, n for window state Sn.
	Group []int
}

// Validate checks that P is square, matches the label count, has
// non-negative entries, and that every row sums to 1 within tolerance.
func (c *Chain) Validate() error {
	n := len(c.Labels)
	if len(c.P) != n || len(c.Group) != n {
		return fmt.Errorf("markov: inconsistent sizes: %d labels, %d rows, %d groups", n, len(c.P), len(c.Group))
	}
	for i, row := range c.P {
		if len(row) != n {
			return fmt.Errorf("markov: row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for j, v := range row {
			if v < -1e-12 || math.IsNaN(v) {
				return fmt.Errorf("markov: P[%d][%d] = %v is invalid", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("markov: row %d (%s) sums to %v", i, c.Labels[i], sum)
		}
	}
	return nil
}

// StateIndex returns the index of the state with the given label, or
// -1 if absent.
func (c *Chain) StateIndex(label string) int {
	for i, l := range c.Labels {
		if l == label {
			return i
		}
	}
	return -1
}

// Stationary solves πP = π, Σπ = 1 by Gaussian elimination with
// partial pivoting. It returns an error if the linear system is
// singular (e.g. a disconnected chain).
func (c *Chain) Stationary() ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.P)
	// Build A = Pᵀ − I; replace the last equation with Σπ = 1.
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = c.P[j][i]
		}
		a[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1

	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-14 {
			return nil, errors.New("markov: singular system; chain may be reducible")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	pi := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[i][k] * pi[k]
		}
		pi[i] = s / a[i][i]
	}
	// Clean tiny negative round-off and renormalize.
	total := 0.0
	for i := range pi {
		if pi[i] < 0 && pi[i] > -1e-9 {
			pi[i] = 0
		}
		total += pi[i]
	}
	if total <= 0 {
		return nil, errors.New("markov: stationary vector degenerate")
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi, nil
}

// StationaryPower approximates the stationary distribution by power
// iteration (used by tests to cross-check the direct solver).
func (c *Chain) StationaryPower(iters int) []float64 {
	n := len(c.P)
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				next[j] += pi[i] * c.P[i][j]
			}
		}
		pi, next = next, pi
	}
	return pi
}

// SentDistribution folds a stationary vector into the "k packets sent
// per epoch" classes plotted in Fig 6. Keys are the group values (0 =
// silent buffer epochs, 1 = retransmit epochs, n = window-n epochs).
func (c *Chain) SentDistribution(pi []float64) map[int]float64 {
	out := make(map[int]float64)
	for i, g := range c.Group {
		out[g] += pi[i]
	}
	return out
}

// TimeoutMass returns the stationary probability of being in a
// timeout-related state (silent buffers plus retransmit states), i.e.
// groups 0 and 1.
func (c *Chain) TimeoutMass(pi []float64) float64 {
	m := 0.0
	for i, g := range c.Group {
		if g <= 1 {
			m += pi[i]
		}
	}
	return m
}

// ExpectedThroughput returns the model's long-run send rate in packets
// per epoch: the stationary expectation of the per-state packet count
// (Σ πᵢ·groupᵢ). Dividing by the epoch (RTT) gives the familiar
// packets-per-second model throughput; unlike Padhye-style formulas
// the full distribution is available, not just this mean (§6).
func (c *Chain) ExpectedThroughput(pi []float64) float64 {
	t := 0.0
	for i, g := range c.Group {
		t += pi[i] * float64(g)
	}
	return t
}
