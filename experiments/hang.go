package experiments

import (
	"fmt"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/topology"
	"taq/internal/workload"
)

// hangPoint summarizes user-perceived hangs for one population size
// (§2.3's in-text experiment: 1 Mbps, RTT 200 ms, 50-packet buffer,
// 4 connections per user).
type hangPoint struct {
	Users        int
	ConnsPerUser int
	FracOver20s  float64
	FracOver60s  float64
	MaxHang      sim.Time
}

// hangTimes reproduces §2.3: users each spawn a pool of TCP
// connections sharing a 1 Mbps bottleneck; a user-perceived hang is an
// interval in which none of the user's connections delivers data.
// Paper: with 200 users all users hang >20 s at least once; with 400
// users ~50% hang >1 minute.
func hangTimes(qk topology.QueueKind, scale Scale, seed int64) sweep[hangPoint] {
	duration := scale.duration(1000*sim.Second, 400*sim.Second)
	points := runSweep([]int{200, 400}, func(_ int, users int) hangPoint {
		n := topology.MustNew(topology.Config{
			Seed:      seed,
			Bandwidth: 1000 * link.Kbps,
			PropRTT:   200 * sim.Millisecond,
			Queue:     qk,
			RTTJitter: 0.25,
		})
		workload.WebUserPool(n, users, 4, 5*sim.Second)
		n.Run(duration)
		n.Hangs.Finish(n.Engine.Now())
		var maxHang sim.Time
		for u := 0; u < users; u++ {
			if h := n.Hangs.MaxHang(packet.PoolID(u)); h > maxHang {
				maxHang = h
			}
		}
		return hangPoint{
			Users:        users,
			ConnsPerUser: 4,
			FracOver20s:  n.Hangs.FractionExceeding(20 * sim.Second),
			FracOver60s:  n.Hangs.FractionExceeding(60 * sim.Second),
			MaxHang:      maxHang,
		}
	})
	return sweep[hangPoint]{
		title:  fmt.Sprintf("Queue: %s\n", qk),
		points: points,
		cols: []column[hangPoint]{
			{"users", func(p hangPoint) string { return dec(p.Users) }},
			{"conns", func(p hangPoint) string { return dec(p.ConnsPerUser) }},
			{">20s hang", func(p hangPoint) string { return f2(p.FracOver20s) }},
			{">60s hang", func(p hangPoint) string { return f2(p.FracOver60s) }},
			{"max hang", func(p hangPoint) string { return fmt.Sprintf("%.0fs", p.MaxHang.Seconds()) }},
		},
	}
}

func hang(env Env) Report {
	s := hangTimes(topology.DropTail, env.Scale, env.Seed)
	m := s.metrics()
	for _, p := range s.points {
		m[fmt.Sprintf("users%d_frac_over20s", p.Users)] = p.FracOver20s
	}
	return Report{s.render(env.CSV), m}
}
