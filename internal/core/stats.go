package core

import "strconv"

// Delta returns the counter differences s - prev, for per-interval
// reporting from cumulative counters.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	d.Arrivals -= prev.Arrivals
	d.Drops -= prev.Drops
	d.PolicyDrops -= prev.PolicyDrops
	d.RtxDrops -= prev.RtxDrops
	d.Served -= prev.Served
	d.SynsBlocked -= prev.SynsBlocked
	d.PoolsAdmitted -= prev.PoolsAdmitted
	d.PoolsForced -= prev.PoolsForced
	d.PoolsWaited -= prev.PoolsWaited
	for i := range d.DropsByClass {
		d.DropsByClass[i] -= prev.DropsByClass[i]
		d.ServedByClass[i] -= prev.ServedByClass[i]
	}
	for i := range d.Transitions {
		d.Transitions[i] -= prev.Transitions[i]
	}
	return d
}

// Fields returns the counters as parallel (name, value) slices in a
// stable, documented order — the single source of truth for CLI and
// telemetry output, instead of ad-hoc struct prints that drift.
func (s Stats) Fields() ([]string, []uint64) {
	names := make([]string, 0, 6+2*numClasses)
	values := make([]uint64, 0, 6+2*numClasses)
	add := func(n string, v uint64) {
		names = append(names, n)
		values = append(values, v)
	}
	add("arrivals", s.Arrivals)
	add("drops", s.Drops)
	add("policy_drops", s.PolicyDrops)
	for c := 0; c < numClasses; c++ {
		add("drops_"+classLabels[c].label, s.DropsByClass[c])
	}
	add("served", s.Served)
	for c := 0; c < numClasses; c++ {
		add("served_"+classLabels[c].label, s.ServedByClass[c])
	}
	add("syns_blocked", s.SynsBlocked)
	add("pools_admitted", s.PoolsAdmitted)
	add("pools_waited", s.PoolsWaited)
	return names, values
}

// String renders the counters as space-separated name=value pairs in
// Fields order.
func (s Stats) String() string {
	names, values := s.Fields()
	var b []byte
	for i, n := range names {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, n...)
		b = append(b, '=')
		b = strconv.AppendUint(b, values[i], 10)
	}
	return string(b)
}
