// Quiescence of every timer owner. A type that holds a *sim.Timer must
// leave nothing on its engine once it is stopped or at rest: a handle
// it dropped would keep firing into an owner that thinks it is done.
// The table below has one row per such type, and the companion test
// pins its keys to the module, so a new timer field cannot skip it.
package taq_test

import (
	"go/types"
	"io"
	"slices"
	"strings"
	"testing"

	"taq/internal/analysis"
	"taq/internal/core"
	"taq/internal/link"
	"taq/internal/obs"
	"taq/internal/packet"
	"taq/internal/sim"
	"taq/internal/tcp"
	"taq/internal/tfrc"
)

// timerOwner is one type that holds *sim.Timer fields.
type timerOwner struct {
	// typ is the type's package path and name; fields are its
	// *sim.Timer fields, in declaration order.
	typ    string
	fields []string
	// runs each build the owner alone on a fresh engine; together
	// they arm every field.
	runs []timerRun
}

// timerRun arms some of an owner's timers, running a self-re-arming
// one past at least one firing, and returns what brings the owner to
// rest: its Stop.
type timerRun struct {
	name string
	arm  func(t *testing.T, eng *sim.Engine) (rest func())
}

// drop is an output path that discards what it is given.
func drop(*packet.Packet) {}

var timerOwners = []timerOwner{
	{
		typ: "taq/internal/core.TAQ", fields: []string{"scanTimer"},
		runs: []timerRun{
			{"stop before the first scan", func(t *testing.T, eng *sim.Engine) func() {
				q := core.NewSharded(eng, core.DefaultConfig(600*link.Kbps, 50), 1).Shard(0)
				q.Start()
				return q.Stop
			}},
			{"stop after scans", func(t *testing.T, eng *sim.Engine) func() {
				q := core.NewSharded(eng, core.DefaultConfig(600*link.Kbps, 50), 1).Shard(0)
				q.Start()
				eng.RunUntil(350 * sim.Millisecond) // three 100 ms scans
				return q.Stop
			}},
		},
	},
	{
		typ: "taq/internal/tcp.Sender", fields: []string{"rtoTimer", "synTimer", "paceTimer"},
		runs: []timerRun{
			{"syn retried", func(t *testing.T, eng *sim.Engine) func() {
				cfg := tcp.DefaultConfig()
				s := tcp.NewSender(eng, cfg, 1, packet.PoolNone, tcp.BulkApp{}, drop)
				s.Start()
				eng.RunUntil(cfg.SynTimeout + sim.Millisecond)
				return s.Stop
			}},
			{"rto fired", func(t *testing.T, eng *sim.Engine) func() {
				s := tcp.NewSender(eng, tcp.DefaultConfig(), 1, packet.PoolNone, tcp.BulkApp{}, drop)
				s.Start()
				s.Deliver(&packet.Packet{Flow: 1, Kind: packet.SynAck})
				eng.RunUntil(5 * sim.Second)
				if s.Stats.Timeouts == 0 {
					t.Fatal("no retransmission timeout fired")
				}
				return s.Stop
			}},
			{"paced", func(t *testing.T, eng *sim.Engine) func() {
				cfg := tcp.DefaultConfig()
				cfg.Variant = tcp.VariantSubPacket
				cfg.InitialCwnd = 0.5
				s := tcp.NewSender(eng, cfg, 1, packet.PoolNone, tcp.BulkApp{}, drop)
				s.Start()
				s.Deliver(&packet.Packet{Flow: 1, Kind: packet.SynAck})
				eng.RunUntil(10 * sim.Millisecond)
				// The ack empties the window early: the next segment
				// waits on the pacing timer.
				s.Deliver(&packet.Packet{Flow: 1, Kind: packet.Ack, CumAck: 1})
				return s.Stop
			}},
		},
	},
	{
		typ: "taq/internal/tfrc.Sender", fields: []string{"paceTimer", "nfTimer"},
		runs: []timerRun{
			{"paced, no feedback", func(t *testing.T, eng *sim.Engine) func() {
				s := tfrc.NewSender(eng, tfrc.DefaultConfig(), 1, packet.PoolNone, drop)
				s.Start()
				eng.RunUntil(5 * sim.Second)
				if s.RateHalvings == 0 {
					t.Fatal("no no-feedback timeout fired")
				}
				return s.Stop
			}},
		},
	},
	{
		typ: "taq/internal/tfrc.Receiver", fields: []string{"fbTimer"},
		runs: []timerRun{
			{"feedback sent", func(t *testing.T, eng *sim.Engine) func() {
				r := tfrc.NewReceiver(eng, tfrc.DefaultConfig(), 1, packet.PoolNone, drop)
				r.Deliver(&packet.Packet{Flow: 1, Kind: packet.Data, Seq: 0, Size: 500})
				eng.RunUntil(sim.Second)
				if r.FeedbackSent == 0 {
					t.Fatal("no feedback sent")
				}
				return func() { r.Stop() }
			}},
		},
	},
	{
		typ: "taq/internal/obs.Sampler", fields: []string{"timer"},
		runs: []timerRun{
			{"sampled", func(t *testing.T, eng *sim.Engine) func() {
				s := obs.StartSampler(eng, obs.NewRegistry(), sim.Second, io.Discard, nil)
				eng.RunUntil(3 * sim.Second)
				return func() { s.Stop() }
			}},
		},
	},
	{
		typ: "taq/internal/obs.FlightRecorder", fields: []string{"timer"},
		runs: []timerRun{
			{"polled", func(t *testing.T, eng *sim.Engine) func() {
				f := obs.NewFlightRecorder(eng, obs.NewRecorder(nil, 0), 0, nil)
				f.Start()
				eng.RunUntil(sim.Second)
				return f.Stop
			}},
		},
	},
}

// TestTimerOwnersQuiesce arms each owner's timers on a fresh engine,
// brings the owner to rest, and requires the engine to hold nothing.
func TestTimerOwnersQuiesce(t *testing.T) {
	for _, o := range timerOwners {
		for _, r := range o.runs {
			t.Run(strings.TrimPrefix(o.typ, "taq/internal/")+"/"+r.name, func(t *testing.T) {
				eng := sim.NewEngine(1)
				rest := r.arm(t, eng)
				if eng.Pending() == 0 {
					t.Fatal("no timer armed before rest")
				}
				rest()
				if n := eng.Pending(); n != 0 {
					t.Errorf("%d events pending at rest, want 0", n)
				}
			})
		}
	}
}

// TestTimerOwnerTableIsComplete pins the table to the module: its rows
// must be exactly the struct types outside internal/sim with a
// *sim.Timer field, with exactly those fields. An alias would name a
// row's type a second time, so aliases are skipped.
func TestTimerOwnerTableIsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	found := make(map[string][]string)
	for _, p := range pkgs {
		if p.Path == "taq/internal/sim" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); isSimTimer(f.Type()) {
					key := p.Path + "." + name
					found[key] = append(found[key], f.Name())
				}
			}
		}
	}
	listed := make(map[string]bool)
	for _, o := range timerOwners {
		listed[o.typ] = true
		if got, ok := found[o.typ]; !ok {
			t.Errorf("row %s: no such type holds a *sim.Timer", o.typ)
		} else if !slices.Equal(got, o.fields) {
			t.Errorf("row %s lists timer fields %v, the type has %v", o.typ, o.fields, got)
		}
	}
	for typ, fields := range found {
		if !listed[typ] {
			t.Errorf("%s holds *sim.Timer fields %v but has no quiescence row", typ, fields)
		}
	}
}

// isSimTimer reports whether t is *sim.Timer.
func isSimTimer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "taq/internal/sim" && named.Obj().Name() == "Timer"
}
