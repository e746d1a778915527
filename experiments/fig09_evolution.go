package experiments

import (
	"fmt"

	"taq/internal/link"
	"taq/internal/metrics"
	"taq/internal/sim"
	"taq/internal/topology"
)

// evolutionResult is the Fig 9 reproduction for one queue discipline:
// per-slice counts of arriving / dropped / maintained / stalled flows.
type evolutionResult struct {
	Queue  topology.QueueKind
	Counts metrics.EvolutionCounts
}

// Fig 9's population and slice width. 20 s slices, as in the paper's
// other short-term analyses: with 180 flows on 600 Kbps (≈150 pkt/s
// aggregate), no discipline can serve every flow within a couple of
// RTTs; "stalled" is a flow silent across two consecutive slices, i.e.
// stuck in the deep (≥ tens of seconds) backoff stages.
const (
	evolutionFlows = 180
	evolutionSlice = 20 * sim.Second
)

// flowEvolution reproduces Fig 9: 180 long-running flows over a
// 600 Kbps bottleneck; each slice, flows are classified by their
// progress transition. Under DropTail a large population stalls in
// repetitive timeouts; under TAQ the stalled count is near zero and
// more flows stay in the maintained state.
func flowEvolution(qk topology.QueueKind, scale Scale, seed int64) evolutionResult {
	duration := scale.duration(1100*sim.Second, 240*sim.Second)
	net, slices := bulkDumbbell(topology.Config{
		Seed:       seed,
		Bandwidth:  600 * link.Kbps,
		Queue:      qk,
		RTTJitter:  0.25,
		SliceWidth: evolutionSlice,
	}, evolutionFlows, duration)
	warmup := int(100 * sim.Second / evolutionSlice) // paper plots from t=200s
	return evolutionResult{qk, net.Slicer.Evolution(warmup, slices)}
}

func meanOf(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// series renders every step-th slice under the mean counts; step 1 is
// the full per-slice series (Fig 9's plotted data).
func (r evolutionResult) series(step int) sweep[int] {
	c := r.Counts
	s := sweep[int]{
		title: fmt.Sprintf("Queue: %s, %d flows, %s slices\n", r.Queue, evolutionFlows, evolutionSlice) +
			fmt.Sprintf("means: maintained=%.1f dropped=%.1f arriving=%.1f stalled=%.1f\n",
				c.MeanMaintained(), meanOf(c.Dropped), meanOf(c.Arriving), c.MeanStalled()),
		cols: []column[int]{
			{"t", func(i int) string { return fmt.Sprintf("%.0fs", (sim.Time(c.Slices[i]) * evolutionSlice).Seconds()) }},
			{"arriving", func(i int) string { return dec(c.Arriving[i]) }},
			{"dropped", func(i int) string { return dec(c.Dropped[i]) }},
			{"maintained", func(i int) string { return dec(c.Maintained[i]) }},
			{"stalled", func(i int) string { return dec(c.Stalled[i]) }},
		},
	}
	for i := 0; i < len(c.Slices); i += max(step, 1) {
		s.points = append(s.points, i)
	}
	return s
}

// fig9 runs each discipline through the worker pool (one independent
// engine each). The table samples about ten slices; CSV has them all.
func fig9(env Env) Report {
	qks := []topology.QueueKind{topology.DropTail, topology.TAQ}
	rs := runSweep(qks, func(_ int, qk topology.QueueKind) evolutionResult {
		return flowEvolution(qk, env.Scale, env.Seed)
	})
	out, m := "", map[string]float64{}
	for _, r := range rs {
		step := len(r.Counts.Slices) / 10
		if env.CSV {
			step = 1
		}
		out += r.series(step).render(env.CSV) + "\n"
		m[string(r.Queue)+"_mean_stalled"] = r.Counts.MeanStalled()
		m[string(r.Queue)+"_mean_maintained"] = r.Counts.MeanMaintained()
	}
	return Report{out, m}
}
