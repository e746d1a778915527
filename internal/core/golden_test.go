package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
)

// The golden-trace gate: each scenario drives a TAQ middlebox with a
// seeded synthetic workload and hashes (a) the full JSONL event trace
// and (b) a periodic read-out of every control surface the tracker
// feeds (active flows, recovering flows, census, fair share, loss
// rate). The hashes are pinned in testdata/golden_traces.txt, so any
// change to tracker accounting — however subtle — that shifts an event,
// a classification, or a gauge value by one bit fails here. Run with
// TAQ_UPDATE_GOLDEN=1 to re-pin after an intentional behavior change.
//
// The Proportional fairness model is deliberately not pinned: its
// inverse-epoch weighting is specified only up to summation order, and
// the incremental tracker uses an exact fixed-point sum instead of
// order-dependent float addition (see the equivalence tests).

type goldenScenario struct {
	name     string
	flows    int
	duration sim.Time
	cfg      func(*Config)
	// poolOf assigns flows to pools; nil means PoolNone for all.
	poolOf func(i int) packet.PoolID
}

var goldenScenarios = []goldenScenario{
	{
		// Fair-queuing default: heavy contention on a small buffer.
		name: "fairq", flows: 60, duration: 30 * sim.Second,
		cfg: func(c *Config) {},
	},
	{
		// Pool fair share: 12 pools of 4 plus pool-less singletons.
		name: "pools", flows: 48, duration: 20 * sim.Second,
		cfg: func(c *Config) { c.PoolFairShare = true },
		poolOf: func(i int) packet.PoolID {
			if i%5 == 4 {
				return packet.PoolNone
			}
			return packet.PoolID(i / 4)
		},
	},
	{
		// Admission control under pool churn.
		name: "admission", flows: 64, duration: 30 * sim.Second,
		cfg:    func(c *Config) { c.AdmissionControl = true },
		poolOf: func(i int) packet.PoolID { return packet.PoolID(i / 4) },
	},
	{
		// Flow churn across FlowExpiry: the active window of flows
		// slides, so early flows sit silent past expiry and are
		// evicted while new ones are created.
		name: "churn", flows: 300, duration: 150 * sim.Second,
		cfg: func(c *Config) {},
	},
}

// runGolden executes one scenario and returns the JSONL event trace
// and the control read-out series.
func runGolden(t *testing.T, sc goldenScenario) (events, reads []byte) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(600*link.Kbps, 32)
	sc.cfg(&cfg)
	q := NewSharded(eng, cfg, 1)

	var evBuf bytes.Buffer
	sink := obs.NewJSONLSink(&evBuf)
	sink.ClassName = func(c int8) string { return Class(c).String() }
	sink.StateName = func(s int8) string { return FlowState(s).String() }
	rec := obs.NewRecorder(sink, 0)
	q.SetRecorder(rec)
	q.Start()

	rng := rand.New(rand.NewSource(11))
	seqs := make([]int, sc.flows)
	pool := func(i int) packet.PoolID {
		if sc.poolOf == nil {
			return packet.PoolNone
		}
		return sc.poolOf(i)
	}

	var rd bytes.Buffer
	readOut := func(now sim.Time) {
		fmt.Fprintf(&rd, "%d,%d,%d", now, q.ActiveFlows(), q.RecoveringFlows())
		c := q.StateCensus()
		for s := 0; s < numFlowStates; s++ {
			fmt.Fprintf(&rd, ",%d", c[FlowState(s)])
		}
		rd.WriteByte(',')
		rd.WriteString(strconv.FormatFloat(q.shards[0].FairShare(), 'g', -1, 64))
		rd.WriteByte(',')
		rd.WriteString(strconv.FormatFloat(q.LossRate(), 'g', -1, 64))
		fmt.Fprintf(&rd, ",%d,%d\n", q.WaitingPools(), q.Len())
	}

	const step = 10 * sim.Millisecond
	// The active window slides over the flow space so old flows go
	// silent (and, in the churn scenario, expire).
	window := 40
	if window > sc.flows {
		window = sc.flows
	}
	for now := sim.Time(0); now < sc.duration; now += step {
		eng.RunUntil(now)
		lo := int(float64(sc.flows-window) * float64(now) / float64(sc.duration))
		for k := 0; k < 3; k++ {
			i := lo + rng.Intn(window)
			fl := packet.FlowID(i + 1)
			switch rng.Intn(10) {
			case 0:
				q.Enqueue(&packet.Packet{Flow: fl, Pool: pool(i), Kind: packet.Syn, Size: 40})
			case 1, 2, 3, 4, 5:
				q.Enqueue(&packet.Packet{Flow: fl, Pool: pool(i), Kind: packet.Data, Seq: seqs[i], Size: 500})
				seqs[i]++
			case 6:
				s := seqs[i] - 1 - rng.Intn(3)
				if s < 0 {
					s = 0
				}
				q.Enqueue(&packet.Packet{
					Flow: fl, Pool: pool(i), Kind: packet.Data, Seq: s,
					Size: 500, Retransmit: true,
				})
			case 7:
				q.ObserveReverse(&packet.Packet{Flow: fl, Pool: pool(i), Kind: packet.Ack, CumAck: seqs[i], Size: 40})
			case 8:
				q.Dequeue()
				q.Dequeue()
			case 9:
				// Silence: no packet this slot.
			}
		}
		q.Dequeue()
		if now%(50*sim.Millisecond) == 0 {
			readOut(now)
		}
	}
	q.Stop()
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	// TAQ_GOLDEN_DUMP writes the raw traces for offline diffing when a
	// hash mismatch needs investigating.
	if dir := os.Getenv("TAQ_GOLDEN_DUMP"); dir != "" {
		_ = os.WriteFile(filepath.Join(dir, sc.name+".events"), evBuf.Bytes(), 0o644)
		_ = os.WriteFile(filepath.Join(dir, sc.name+".reads"), rd.Bytes(), 0o644)
	}
	return evBuf.Bytes(), rd.Bytes()
}

func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

const goldenFile = "testdata/golden_traces.txt"

func loadGolden(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("no golden hashes (%v); run with TAQ_UPDATE_GOLDEN=1 to create them", err)
	}
	defer f.Close()
	out := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			continue
		}
		out[fields[0]] = [2]string{fields[1], fields[2]}
	}
	return out
}

// TestGoldenTraces pins the middlebox's externally observable behavior
// byte for byte across tracker-internals changes.
func TestGoldenTraces(t *testing.T) {
	update := os.Getenv("TAQ_UPDATE_GOLDEN") != ""
	got := map[string][2]string{}
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			events, reads := runGolden(t, sc)
			if len(events) == 0 || len(reads) == 0 {
				t.Fatal("scenario produced an empty trace")
			}
			got[sc.name] = [2]string{hashHex(events), hashHex(reads)}
			if update {
				return
			}
			want, ok := loadGolden(t)[sc.name]
			if !ok {
				t.Fatalf("no golden hash for scenario %q; run with TAQ_UPDATE_GOLDEN=1", sc.name)
			}
			if got[sc.name] != want {
				t.Errorf("trace diverged from golden:\n events %s (want %s)\n reads  %s (want %s)",
					got[sc.name][0], want[0], got[sc.name][1], want[1])
			}
		})
	}
	if update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s %s\n", n, got[n][0], got[n][1])
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenFile)
	}
}
