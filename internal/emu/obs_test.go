package emu

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/sim"
	"taq/internal/topology"
)

// TestTestbedObservability drives a TAQ testbed with tracing, gauges
// and the live endpoint all enabled — the emu-side integration of the
// obs layer, and a -race workout for the recorder under concurrent
// timer callbacks plus HTTP snapshot reads.
func TestTestbedObservability(t *testing.T) {
	rec := obs.NewRecorder(nil, 1024)
	var series obs.MemorySeries
	cfg := testbedCfg(3, 200, 400*link.Kbps, topology.TAQ)
	cfg.HTTPAddr = "127.0.0.1:0"
	tb := NewTestbed(cfg)
	tb.Snapshot(func() {
		tb.Net.EnableObservability(rec)
		tb.Net.EnableGauges(sim.Second, &series)
	})
	if tb.HTTPErr != nil {
		t.Logf("live endpoint unavailable: %v", tb.HTTPErr)
	}
	tb.AddBulkFlow()
	tb.AddBulkFlow()
	tb.RunFor(10 * sim.Second)

	if tb.HTTP != nil {
		resp, err := http.Get("http://" + tb.HTTP.Addr() + "/vars")
		if err != nil {
			t.Fatalf("GET /vars: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, key := range []string{`"qlen"`, `"utilization"`, `"qlen_recovery"`, `"active_flows"`, `"loss_ewma"`} {
			if !strings.Contains(string(body), key) {
				t.Errorf("/vars missing %s: %s", key, body)
			}
		}
		resp, err = http.Get("http://" + tb.HTTP.Addr() + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "taq_served_total") {
			t.Errorf("/metrics missing the middlebox families: %s", body)
		}
	}

	tb.Stop()

	var recorded uint64
	var enq, deq bool
	tb.Snapshot(func() {
		recorded = rec.Recorded
		for _, ev := range rec.Events() {
			switch ev.Kind {
			case obs.KindEnqueue:
				enq = true
			case obs.KindDequeue:
				deq = true
			}
		}
	})
	if recorded == 0 {
		t.Fatal("no trace events recorded")
	}
	if !enq || !deq {
		t.Fatalf("missing lifecycle events: enqueue=%v dequeue=%v", enq, deq)
	}
	if len(series.Times) < 2 {
		t.Fatalf("gauge samples = %d, want ≥ 2", len(series.Times))
	}
	if len(series.Names) == 0 || series.Names[0] != "qlen" {
		t.Fatalf("gauge header = %v", series.Names)
	}
}

// TestTestbedStopWithoutObs checks Stop stays safe when no obs options
// are configured (nil gauge set, recorder and server).
func TestTestbedStopWithoutObs(t *testing.T) {
	tb := NewTestbed(testbedCfg(1, 500, 200*link.Kbps, topology.DropTail))
	tb.AddBulkFlow()
	tb.RunFor(sim.Second)
	tb.Stop()
}
