package emu

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/sim"
	"taq/internal/topology"
)

// TestTestbedObservability drives a TAQ testbed with tracing, the time
// series and the live endpoint all enabled — the emu-side integration
// of the obs layer, and a -race workout for the recorder and the
// registry under concurrent timer callbacks plus HTTP snapshot reads.
func TestTestbedObservability(t *testing.T) {
	rec := obs.NewRecorder(nil, 1024)
	var series bytes.Buffer
	var sampler *obs.Sampler
	cfg := testbedCfg(3, 200, 400*link.Kbps, topology.TAQ)
	cfg.HTTPAddr = "127.0.0.1:0"
	tb := NewTestbed(cfg)
	tb.Snapshot(func() {
		tb.Net.EnableObservability(rec)
		sampler = tb.Net.SampleSeries(sim.Second, &series)
	})
	if tb.HTTPErr != nil {
		t.Logf("live endpoint unavailable: %v", tb.HTTPErr)
	}
	tb.AddBulkFlow()
	tb.AddBulkFlow()
	tb.RunFor(10 * sim.Second)

	if tb.HTTP != nil {
		resp, err := http.Get("http://" + tb.HTTP.Addr() + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{
			"# TYPE taq_served_total counter",
			"# TYPE taq_queue_packets gauge\ntaq_queue_packets ",
			"# TYPE taq_class_queue_packets gauge\n",
			`taq_class_queue_packets{class="recovery"} `,
			`taq_class_queue_packets{class="abovefair"} `,
			"\ntaq_active_flows ",
			"\ntaq_loss_ewma ",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics missing %q:\n%s", want, body)
			}
		}
	}

	tb.Snapshot(func() {
		if err := sampler.Stop(); err != nil {
			t.Errorf("sampler Stop: %v", err)
		}
	})
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
	rows := strings.Split(strings.TrimSuffix(series.String(), "\n"), "\n")
	if len(rows) < 3 {
		t.Fatalf("series rows = %d, want a header and ≥ 2 samples", len(rows))
	}
	if !strings.HasPrefix(rows[0], "t_ns,qlen,") {
		t.Fatalf("series header = %q", rows[0])
	}
}

// TestTestbedStopWithoutObs checks Stop stays safe when no obs options
// are configured (nil recorder, registry and server).
func TestTestbedStopWithoutObs(t *testing.T) {
	tb := NewTestbed(testbedCfg(1, 500, 200*link.Kbps, topology.DropTail))
	tb.AddBulkFlow()
	tb.RunFor(sim.Second)
	tb.Stop()
}
