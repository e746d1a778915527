package metrics

import (
	"math"
	"sort"
)

// SizeSample pairs an object size with a measured value (e.g. download
// time in seconds), the raw data behind Fig 1's scatter plot.
type SizeSample struct {
	SizeBytes int
	Value     float64
}

// BucketStat summarizes the samples falling into one logarithmic size
// bucket — the per-bucket min / max / average / 10th / 90th percentile
// curves of Fig 1.
type BucketStat struct {
	Lo, Hi   float64 // bucket bounds in bytes, [Lo, Hi)
	N        int
	Avg      float64
	Min, Max float64
	P10, P90 float64
}

// BucketStats assigns each sample to a logarithmic bucket
// (perDecade buckets per factor of 10, e.g. 2 gives …,100B,316B,1KB,…)
// and summarizes each non-empty bucket, sorted by size.
func BucketStats(samples []SizeSample, perDecade int) []BucketStat {
	if perDecade < 1 {
		perDecade = 1
	}
	// Bucket indexes are ≥ 0 (sizes are ≥ 1 byte), so the groups are a
	// table by index, walked in size order.
	var groups [][]float64
	for _, s := range samples {
		if s.SizeBytes < 1 {
			continue
		}
		b := int(math.Floor(math.Log10(float64(s.SizeBytes)) * float64(perDecade)))
		for b >= len(groups) {
			groups = append(groups, nil)
		}
		groups[b] = append(groups[b], s.Value)
	}
	out := make([]BucketStat, 0, len(groups))
	for k, vals := range groups {
		if len(vals) == 0 {
			continue
		}
		var c CDF
		for _, v := range vals {
			c.Add(v)
		}
		out = append(out, BucketStat{
			Lo:  math.Pow(10, float64(k)/float64(perDecade)),
			Hi:  math.Pow(10, float64(k+1)/float64(perDecade)),
			N:   len(vals),
			Avg: c.Mean(),
			Min: c.Min(),
			Max: c.Max(),
			P10: c.Percentile(10),
			P90: c.Percentile(90),
		})
	}
	return out
}

// LogBuckets returns n log-spaced histogram upper bounds starting at
// lo, with perDecade buckets per factor of ten:
//
//	bounds[i] = lo * 10^(i/perDecade)
//
// This is the single source of bucket boundaries shared by the figure
// sweeps (CDF.BucketCounts) and the live obs histograms
// (obs.TimeBuckets), so a percentile read off /metrics lands in the
// same bucket a figure sweep would report.
func LogBuckets(lo float64, perDecade, n int) []float64 {
	if perDecade < 1 {
		perDecade = 1
	}
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(10, float64(i)/float64(perDecade))
	}
	return out
}

// BucketCounts projects the samples onto the given ascending upper
// bounds using Prometheus "le" semantics (a sample lands in the first
// bucket whose bound is >= the sample). The result has len(bounds)+1
// entries; the last is the overflow bucket. Counts are per-bucket, not
// cumulative.
func (c *CDF) BucketCounts(bounds []float64) []int {
	out := make([]int, len(bounds)+1)
	for _, v := range c.vals {
		i := sort.SearchFloat64s(bounds, v) // first bound >= v
		out[i]++
	}
	return out
}

// SpreadOrders returns how many orders of magnitude separate the
// bucket's min and max (Fig 1's headline: "download times vary by over
// two orders of magnitude").
func (b BucketStat) SpreadOrders() float64 {
	if b.Min <= 0 || b.Max <= 0 {
		return 0
	}
	return math.Log10(b.Max / b.Min)
}
