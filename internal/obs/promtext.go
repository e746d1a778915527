package obs

import (
	"io"
	"math"
	"strconv"

	"taq/internal/sim"
)

// Prometheus text-format exposition (version 0.0.4), stdlib-only.
//
// Durations render through integer arithmetic on sim.Time (int64
// nanoseconds): a duration prints as its exact decimal value in
// seconds — integer part, then up to nine fractional digits with
// trailing zeros trimmed — never through float formatting. Gauges, the
// one float, print in shortest round-trip form, itself a pure function
// of the value. Same-seed runs therefore produce byte-identical
// expositions, which CI gates with cmp(1).

// AppendText renders the snapshot in Prometheus text format, appending
// to b: counters, then gauges, then histograms, each kind in
// Snapshot's name-sorted order. A histogram's series appear
// bucket-major within each label value, ending with +Inf, _sum, _count
// — the layout promtool expects.
func (s *MetricsSnapshot) AppendText(b []byte) []byte {
	for i := range s.Counters {
		c := &s.Counters[i]
		b = appendHeader(b, c.Name, c.Help, "counter")
		for li, v := range c.Values {
			b = appendSeries(b, c.Name, c.Label, c.LabelVals, li)
			b = strconv.AppendUint(b, v, 10)
			b = append(b, '\n')
		}
	}
	for i := range s.Gauges {
		g := &s.Gauges[i]
		b = appendHeader(b, g.Name, g.Help, "gauge")
		for li, v := range g.Values {
			b = appendSeries(b, g.Name, g.Label, g.LabelVals, li)
			b = appendFloat(b, v)
			b = append(b, '\n')
		}
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		b = appendHeader(b, h.Name, h.Help, "histogram")
		rows := len(h.Counts)
		for li := 0; li < rows; li++ {
			var lv string
			hasLabel := len(h.LabelVals) > 0
			if hasLabel {
				lv = h.LabelVals[li]
			}
			var cum uint64
			for bi, n := range h.Buckets[li] {
				cum += n
				b = append(b, h.Name...)
				b = append(b, "_bucket"...)
				if hasLabel {
					b = appendLabel(b, h.Label, lv, true)
					b = append(b, `le="`...)
				} else {
					b = append(b, `{le="`...)
				}
				if bi < len(h.Bounds) {
					b = appendSeconds(b, h.Bounds[bi])
				} else {
					b = append(b, "+Inf"...)
				}
				b = append(b, `"} `...)
				b = strconv.AppendUint(b, cum, 10)
				b = append(b, '\n')
			}
			b = append(b, h.Name...)
			b = append(b, "_sum"...)
			if hasLabel {
				b = appendLabel(b, h.Label, lv, false)
			}
			b = append(b, ' ')
			b = appendSeconds(b, sim.Time(h.Sums[li]))
			b = append(b, '\n')
			b = append(b, h.Name...)
			b = append(b, "_count"...)
			if hasLabel {
				b = appendLabel(b, h.Label, lv, false)
			}
			b = append(b, ' ')
			b = strconv.AppendUint(b, h.Counts[li], 10)
			b = append(b, '\n')
		}
	}
	return b
}

// WriteText writes the exposition to w in a single Write.
func (s *MetricsSnapshot) WriteText(w io.Writer) error {
	_, err := w.Write(s.AppendText(nil))
	return err
}

// appendHeader appends the # HELP / # TYPE pair for a family.
func appendHeader(b []byte, name, help, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// appendSeries appends a counter or gauge series' name, its label pair
// when the family has label values, and the separating space.
func appendSeries(b []byte, name, label string, vals []string, i int) []byte {
	b = append(b, name...)
	if len(vals) > 0 {
		b = appendLabel(b, label, vals[i], false)
	}
	return append(b, ' ')
}

// appendFloat renders v in the shortest round-trippable form, integral
// values as integers ("3"), and NaN and ±Inf as the text format spells
// them ("NaN", "+Inf", "-Inf"): the number format of gauge lines and of
// the Sampler's CSV rows.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && v >= math.MinInt64 && v < math.MaxInt64 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendLabel appends `{label="value"}` — or `{label="value",` when
// open is set, leaving the brace open for a following le pair.
func appendLabel(b []byte, label, value string, open bool) []byte {
	b = append(b, '{')
	b = append(b, label...)
	b = append(b, `="`...)
	b = append(b, value...)
	b = append(b, '"')
	if open {
		return append(b, ',')
	}
	return append(b, '}')
}

// appendSeconds renders a sim.Time as exact decimal seconds:
// "0.000125", "2.5", "31". No float arithmetic, so the bytes are a
// pure function of the integer nanosecond value.
func appendSeconds(b []byte, t sim.Time) []byte {
	if t < 0 {
		b = append(b, '-')
		t = -t
	}
	b = strconv.AppendInt(b, int64(t)/int64(sim.Second), 10)
	frac := int64(t) % int64(sim.Second)
	if frac == 0 {
		return b
	}
	var digits [9]byte
	for i := 8; i >= 0; i-- {
		digits[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := 9
	for n > 0 && digits[n-1] == '0' {
		n--
	}
	b = append(b, '.')
	return append(b, digits[:n]...)
}
