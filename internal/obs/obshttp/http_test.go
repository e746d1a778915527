package obshttp

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"taq/internal/obs"
	"taq/internal/sim"
)

func testOptions() Options {
	reg := obs.NewRegistry()
	c := reg.CounterVec("taq_drops_total", "drops", "class", []string{"recovery", "newflow"})
	h := reg.Histogram("taq_queue_delay_seconds", "delay", []sim.Time{sim.Second / 8, sim.Second})
	c.IncAt(0)
	c.IncAt(1)
	c.IncAt(1)
	h.Observe(sim.Second / 10)
	h.Observe(2 * sim.Second)
	reg.GaugeVecFunc("taq_loss_ewma", "loss", "", nil, func(dst []float64) { dst[0] = 0.125 })
	return Options{Metrics: reg.Snapshot}
}

// TestMuxVarsRouteGone checks the gauges have one read path: /metrics
// carries them, and the JSON /vars route is gone.
func TestMuxVarsRouteGone(t *testing.T) {
	srv := httptest.NewServer(NewMux(testOptions()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/vars")
	if err != nil {
		t.Fatalf("GET /vars: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/vars status = %d, want 404", resp.StatusCode)
	}
}

func TestMuxMetricsExposition(t *testing.T) {
	srv := httptest.NewServer(NewMux(testOptions()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}

	got := string(body)
	want := `# HELP taq_drops_total drops
# TYPE taq_drops_total counter
taq_drops_total{class="recovery"} 1
taq_drops_total{class="newflow"} 2
# HELP taq_loss_ewma loss
# TYPE taq_loss_ewma gauge
taq_loss_ewma 0.125
# HELP taq_queue_delay_seconds delay
# TYPE taq_queue_delay_seconds histogram
taq_queue_delay_seconds_bucket{le="0.125"} 1
taq_queue_delay_seconds_bucket{le="1"} 1
taq_queue_delay_seconds_bucket{le="+Inf"} 2
taq_queue_delay_seconds_sum 2.1
taq_queue_delay_seconds_count 2
`
	if got != want {
		t.Fatalf("/metrics mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Structural validity: every non-comment line is "name{...} value"
	// or "name value", buckets are cumulative, and the ordering is
	// stable across requests.
	for _, line := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("unparseable series line %q", line)
		}
	}
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics again: %v", err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(body2) != got {
		t.Fatal("two /metrics reads of an idle registry must be byte-identical")
	}
}

func TestMuxPprofRegistered(t *testing.T) {
	srv := httptest.NewServer(NewMux(testOptions()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET pprof: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}
}

func TestMuxOmittedRoutes(t *testing.T) {
	// A nil Metrics leaves /metrics unregistered.
	srv := httptest.NewServer(NewMux(Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics status = %d, want 404", resp.StatusCode)
	}
}

func TestServeRealListener(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testOptions())
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
}

func TestNilServerSafe(t *testing.T) {
	var s *Server
	if s.Addr() != "" {
		t.Fatal("nil Addr not empty")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}
