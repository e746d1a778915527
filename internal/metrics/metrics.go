// Package metrics implements the measurement machinery the paper's
// evaluation is built on: the Jain Fairness Index over time slices
// (Figs 2, 8, 11), flow-evolution classification (Fig 9), user-
// perceived hang detection (§2.3), download-time CDFs (Fig 12),
// log-bucketed download-time statistics (Fig 1), and the per-epoch
// packets-sent census used to validate the Markov model (Fig 6).
package metrics

import (
	"math"
	"sort"
)

// JainIndex computes the Jain Fairness Index (Σx)²/(n·Σx²) of the
// allocations xs: 1 for exactly equal shares, 1/n when one member hogs
// everything. An empty or all-zero slice yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CDF accumulates samples and answers percentile queries.
type CDF struct {
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.vals = append(c.vals, v)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.vals) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.vals)
		c.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation between the closest ranks (the numpy default): rank
// p/100*(n-1) is split into an integer part and a fraction, and the
// two neighboring sorted samples are blended by that fraction.
//
// Pinned edge behavior (see the regression table in metrics_test.go):
// no samples returns NaN; a single sample is returned for every p;
// p <= 0 and p >= 100 clamp to the smallest and largest sample.
func (c *CDF) Percentile(p float64) float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	c.sort()
	if p <= 0 {
		return c.vals[0]
	}
	if p >= 100 {
		return c.vals[len(c.vals)-1]
	}
	rank := p / 100 * float64(len(c.vals)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(c.vals) {
		return c.vals[lo]
	}
	return c.vals[lo]*(1-frac) + c.vals[lo+1]*frac
}

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Percentile(50) }

// Min returns the smallest sample (NaN when empty).
func (c *CDF) Min() float64 { return c.Percentile(0) }

// Max returns the largest sample (NaN when empty).
func (c *CDF) Max() float64 { return c.Percentile(100) }

// Mean returns the arithmetic mean (NaN when empty).
func (c *CDF) Mean() float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range c.vals {
		s += v
	}
	return s / float64(len(c.vals))
}

// Points returns up to n evenly spaced (value, cumulative-fraction)
// pairs suitable for plotting the CDF.
func (c *CDF) Points(n int) []CDFPoint {
	if len(c.vals) == 0 || n < 1 {
		return nil
	}
	c.sort()
	if n > len(c.vals) {
		n = len(c.vals)
	}
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.vals) - 1) / max(n-1, 1)
		out = append(out, CDFPoint{
			Value:    c.vals[idx],
			Fraction: float64(idx+1) / float64(len(c.vals)),
		})
	}
	return out
}

// CDFPoint is one point of a plotted CDF.
type CDFPoint struct {
	Value    float64 // sample value (e.g. download time in seconds)
	Fraction float64 // fraction of samples ≤ Value
}

// FractionBelow returns the fraction of samples ≤ v.
func (c *CDF) FractionBelow(v float64) float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	c.sort()
	i := sort.SearchFloat64s(c.vals, v)
	// Include equal values.
	for i < len(c.vals) && c.vals[i] <= v {
		i++
	}
	return float64(i) / float64(len(c.vals))
}
