package experiments

import (
	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/sim"
	"taq/internal/topology"
)

// ablationPoint measures one TAQ variant on the Fig 9 scenario.
type ablationPoint struct {
	Variant        string
	ShortJFI       float64
	MeanStalled    float64
	MeanMaintained float64
	RepetitiveTOs  uint64
	LossRate       float64
}

// ablationSweep runs 120 flows over 600 Kbps under full TAQ, under
// variants with one design element removed (the design choices
// DESIGN.md calls out), and under the DropTail floor.
func ablationSweep(scale Scale, seed int64) sweep[ablationPoint] {
	duration := scale.duration(800*sim.Second, 200*sim.Second)
	const bw = 600 * link.Kbps
	type variant struct {
		name   string
		mut    func(*core.Config)
		qk     topology.QueueKind
		twoWay bool
	}
	variants := []variant{
		{"taq-full", func(*core.Config) {}, topology.TAQ, false},
		{"no-recovery-priority", func(c *core.Config) { c.NoRecoveryPriority = true }, topology.TAQ, false},
		{"no-occupancy-drops", func(c *core.Config) { c.NoOccupancyDrops = true }, topology.TAQ, false},
		{"no-recovery-protection", func(c *core.Config) { c.NoRecoveryProtection = true }, topology.TAQ, false},
		{"proportional-fairness", func(c *core.Config) { c.Fairness = core.Proportional }, topology.TAQ, false},
		{"two-way-observation", func(*core.Config) {}, topology.TAQ, true},
		{"droptail", nil, topology.DropTail, false},
	}

	points := runSweep(variants, func(_ int, v variant) ablationPoint {
		cfg := topology.Config{
			Seed:              seed,
			Bandwidth:         bw,
			Queue:             v.qk,
			RTTJitter:         0.25,
			TwoWayObservation: v.twoWay,
		}
		if v.mut != nil {
			tcfg := core.DefaultConfig(bw, 0)
			v.mut(&tcfg)
			cfg.TAQ = &tcfg
		}
		net, slices := bulkDumbbell(cfg, 120, duration)
		ev := net.Slicer.Evolution(2, slices)
		_, rep := net.AggregateTimeouts()
		return ablationPoint{
			Variant:        v.name,
			ShortJFI:       net.Slicer.MeanSliceJFI(2, slices),
			MeanStalled:    ev.MeanStalled(),
			MeanMaintained: ev.MeanMaintained(),
			RepetitiveTOs:  rep,
			LossRate:       net.LossRate(),
		}
	})
	return sweep[ablationPoint]{points: points, cols: []column[ablationPoint]{
		{"variant", func(p ablationPoint) string { return p.Variant }},
		{"shortJFI", func(p ablationPoint) string { return f3(p.ShortJFI) }},
		{"stalled", func(p ablationPoint) string { return f1(p.MeanStalled) }},
		{"maintained", func(p ablationPoint) string { return f1(p.MeanMaintained) }},
		{"repetitiveTO", func(p ablationPoint) string { return dec(p.RepetitiveTOs) }},
		{"loss", func(p ablationPoint) string { return f3(p.LossRate) }},
	}}
}

// ablationVariant returns the named variant's measurements.
func ablationVariant(points []ablationPoint, name string) (ablationPoint, bool) {
	return find(points, func(p ablationPoint) bool { return p.Variant == name })
}

func ablation(env Env) Report {
	s := ablationSweep(env.Scale, env.Seed)
	full, _ := ablationVariant(s.points, "taq-full")
	dt, _ := ablationVariant(s.points, "droptail")
	m := s.metrics()
	m["taq_full_short_jfi"] = full.ShortJFI
	m["droptail_short_jfi"] = dt.ShortJFI
	m["full_vs_droptail_jfi_gap"] = full.ShortJFI - dt.ShortJFI
	return Report{s.render(env.CSV), m}
}
