package experiments

import (
	"fmt"

	"taq/internal/markov"
)

// modelPoint is one loss rate of the §3.1 analytical summary: the
// partial model's stationary timeout mass and the expected idle time.
type modelPoint struct {
	LossRate    float64
	TimeoutMass float64
	IdleEpochs  float64
}

// modelSummary computes the §3.1 analytical results across loss rates
// and the tipping point behind TAQ's p_thresh (pure computation; no
// simulation).
func modelSummary() (s sweep[modelPoint], tippingPoint float64, err error) {
	const wmax = 6
	ps := []float64{0.02, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	masses, err := markov.TimeoutCurve(ps, wmax)
	if err != nil {
		return s, 0, err
	}
	for i, p := range ps {
		s.points = append(s.points, modelPoint{p, masses[i], markov.ExpectedIdleEpochs(p)})
	}
	s.cols = []column[modelPoint]{
		{"p", func(p modelPoint) string { return f3(p.LossRate) }},
		{"timeout mass", func(p modelPoint) string { return f3(p.TimeoutMass) }},
		{"E[idle epochs]", func(p modelPoint) string { return f2(p.IdleEpochs) }},
	}
	tippingPoint, err = markov.TippingPoint(0.5, wmax)
	return s, tippingPoint, err
}

// modelTables panics on a solver error: the chains are fixed, so only
// a bug in internal/markov can produce one.
func modelTables(env Env) Report {
	s, tp, err := modelSummary()
	if err != nil {
		panic(err)
	}
	return Report{
		s.render(env.CSV) + fmt.Sprintf("tipping point (mass ≥ 0.5): p = %.3f\n", tp),
		map[string]float64{"tipping_point": tp},
	}
}
