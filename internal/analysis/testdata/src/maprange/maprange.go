// Package maprange exercises the maprange analyzer: every range over a
// map is a finding, whatever its body does — an order-sensitive body
// (calls, float accumulation, first match) and one that happens to be
// order-insensitive (integer counting, collect-then-sort) alike. Ranges
// over slices are not, and an allowed range is suppressed.
package maprange

import "sort"

type sched struct{}

func (sched) Schedule(k int) {}

// Calls inside the body run in map order.
func calls(m map[int]int, s sched) {
	for k := range m { // want `iterating map m in nondeterministic order`
		s.Schedule(k)
	}
}

// Floating-point accumulation is not associative.
func floatAcc(m map[int]float64) float64 {
	t := 0.0
	for _, v := range m { // want `iterating map m`
		t += v
	}
	return t
}

// The first match in map order.
func firstMatch(m map[int]int) int {
	for k := range m { // want `iterating map m`
		return k
	}
	return 0
}

// A map reached through a field and a named map type.
type table map[string]int

type holder struct{ byName table }

func (h holder) count() int {
	n := 0
	for range h.byName { // want `iterating map h\.byName`
		n++
	}
	return n
}

// Collect-then-sort is order-independent, and still a finding: a table
// indexed by id needs neither the map nor the sort.
func collectThenSort(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m { // want `iterating map m`
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Ranging a slice is never flagged.
func sliceRange(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t
}

// Suppression with a determinism argument.
func allowed(m map[int]float64) float64 {
	best := 0.0
	//taq:allow maprange (a maximum is order-independent)
	for _, v := range m {
		best = max(best, v)
	}
	return best
}
