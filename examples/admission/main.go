// Admission demonstrates §4.3: when the loss rate at the middlebox
// crosses the Markov model's tipping point (p_thresh ≈ 0.1), TAQ stops
// admitting new flow pools, queues them FIFO, and guarantees admission
// within Twait — trading a short, predictable wait for fast downloads
// once admitted. Clients replay a synthetic web log as fast as their
// four connections allow; compare per-object download times under
// DropTail and TAQ with admission control.
package main

import (
	"fmt"

	"taq"
)

func main() {
	// A synthetic peak-load access log: 30 clients, web-sized objects.
	gen := taq.DefaultTraceConfig()
	gen.Clients = 30
	gen.Duration = 300 * taq.Second
	gen.RequestsPerClientPerMin = 3
	gen.MaxSize = 128 * 1024
	recs := taq.GenerateTrace(gen)
	fmt.Printf("replaying %d objects from %d clients over 1 Mbps\n\n", len(recs), gen.Clients)

	run := func(queue taq.QueueKind, admission bool) {
		tcpCfg := taq.DefaultTCPConfig()
		tcpCfg.MaxSynRetries = -1 // retry until admitted
		cfg := taq.NetworkConfig{
			Seed:      1,
			Bandwidth: 1000 * taq.Kbps,
			Queue:     queue,
			RTTJitter: 0.25,
			TCP:       tcpCfg,
		}
		if admission {
			mb := taq.DefaultMiddleboxConfig(cfg.Bandwidth, 0)
			mb.AdmissionControl = true
			cfg.TAQ = &mb
		}
		net := taq.NewNetwork(cfg)
		sessions := taq.Replay(net, recs, 4, taq.ReplayASAP)
		net.Run(gen.Duration + 120*taq.Second)

		var times taq.CDF
		done, total := 0, 0
		for _, s := range sessions {
			for _, r := range s.Results {
				total++
				if r.Done {
					done++
					times.Add(r.DownloadTime().Seconds())
				}
			}
		}
		label := string(queue)
		if admission {
			label += "+AC"
		}
		fmt.Printf("%-12s completed %d/%d  median=%.1fs  p90=%.1fs  worst=%.1fs\n",
			label, done, total, times.Median(), times.Percentile(90), times.Max())
		if net.Middlebox != nil {
			stats := net.Middlebox.Stats()
			fmt.Printf("%-12s pools admitted=%d, of which waited=%d\n",
				"", stats.PoolsAdmitted, stats.PoolsWaited)
		}
	}

	run(taq.QueueDropTail, false)
	run(taq.QueueTAQ, true)
}
