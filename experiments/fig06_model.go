package experiments

import (
	"fmt"

	"taq/internal/link"
	"taq/internal/markov"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/topology"
)

// validationWmax is the window the Fig 6 census and model truncate at
// (class Wmax clamps larger windows).
const validationWmax = 6

// validationPoint compares the empirical per-epoch packets-sent
// distribution against the Markov model's stationary distribution at
// the measured loss rate (Fig 6).
type validationPoint struct {
	Bandwidth link.Bps
	Flows     int
	LossRate  float64
	// Sim[k] and Model[k] are the probabilities of sending k packets
	// in an epoch, k = 0..validationWmax.
	Sim, Model map[int]float64
	// MeanAbsError averages |Sim−Model| over the classes.
	MeanAbsError float64
}

// modelValidation reproduces Fig 6: flows with variable RTTs and
// TCP SACK share bottlenecks of 200/750/1000 Kbps; contention (N) is
// swept to cover loss probabilities up to ~0.3; for each run the
// per-epoch packets-sent census is compared to the partial model's
// stationary distribution at the measured p.
func modelValidation(scale Scale, seed int64) sweep[validationPoint] {
	duration := scale.duration(2000*sim.Second, 200*sim.Second)
	s := sweep[validationPoint]{cols: []column[validationPoint]{
		{"bandwidth", func(p validationPoint) string { return kbps(p.Bandwidth) }},
		{"flows", func(p validationPoint) string { return dec(p.Flows) }},
		{"p(meas)", func(p validationPoint) string { return f3(p.LossRate) }},
	}}
	for k := 0; k <= validationWmax; k++ {
		s.cols = append(s.cols,
			column[validationPoint]{fmt.Sprintf("sim%d", k), func(p validationPoint) string { return f3(p.Sim[k]) }},
			column[validationPoint]{fmt.Sprintf("mod%d", k), func(p validationPoint) string { return f3(p.Model[k]) }})
	}
	s.cols = append(s.cols, column[validationPoint]{"MAE", func(p validationPoint) string { return f3(p.MeanAbsError) }})

	for _, bw := range []link.Bps{200 * link.Kbps, 750 * link.Kbps, 1000 * link.Kbps} {
		// Sweep contention: fair shares from ~4 pkts/RTT down to deep
		// sub-packet, producing a range of loss rates.
		for _, perFlowPkts := range []float64{4, 2, 1, 0.5, 0.25} {
			pktsPerRTT := float64(bw) * 0.2 / 8 / 500
			if n := int(pktsPerRTT / perFlowPkts); n >= 4 {
				s.points = append(s.points, validate(bw, n, duration, seed))
			}
		}
	}
	return s
}

func validate(bw link.Bps, n int, duration sim.Time, seed int64) validationPoint {
	tcpCfg := tcp.DefaultConfig()
	tcpCfg.SACK = true // the paper validates against TCP SACK
	// The model's base timeout is T0 = 2×RTT (§3.1.1): pin the
	// senders' base RTO to that constant so a simple timeout spans
	// about one silent epoch, as in the chain.
	tcpCfg.FixedRTO = 400 * sim.Millisecond
	net, _ := bulkDumbbell(topology.Config{
		Seed:      seed,
		Bandwidth: bw,
		Queue:     topology.DropTail,
		RTTJitter: 0.25,
		TCP:       tcpCfg,
	}, n, duration, func(net *topology.Network) {
		net.EnableCensus(validationWmax, 400*sim.Millisecond) // ≈ RTT incl. queueing
	})

	point := validationPoint{
		Bandwidth: bw,
		Flows:     n,
		LossRate:  net.LossRate(),
		Sim:       net.Census.Distribution(),
		Model:     map[int]float64{},
	}
	p := point.LossRate
	if p <= 0.005 {
		p = 0.005
	}
	if p >= markov.MaxLoss {
		p = markov.MaxLoss - 0.01
	}
	chain, err := markov.PartialModel(p, validationWmax)
	if err == nil {
		if pi, err := chain.Stationary(); err == nil {
			point.Model = chain.SentDistribution(pi)
		}
	}
	sum := 0.0
	for k := 0; k <= validationWmax; k++ {
		d := point.Sim[k] - point.Model[k]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	point.MeanAbsError = sum / float64(validationWmax+1)
	return point
}

// worstError returns the largest mean absolute error across points
// within the model's scope: measured p > minP (the paper notes
// agreement is best for p > 0.05) and most of the empirical mass below
// the Wmax truncation (§3.1.2: "many flows have higher window sizes,
// but for small packet regimes we are only interested in small cwnd").
func worstError(points []validationPoint, minP float64) float64 {
	worst := 0.0
	for _, pt := range points {
		if pt.LossRate <= minP || pt.Sim[validationWmax] > 0.3 {
			continue
		}
		if pt.MeanAbsError > worst {
			worst = pt.MeanAbsError
		}
	}
	return worst
}

func fig6(env Env) Report {
	s := modelValidation(env.Scale, env.Seed)
	return Report{s.render(env.CSV), map[string]float64{"worst_mae": worstError(s.points, 0.05)}}
}
