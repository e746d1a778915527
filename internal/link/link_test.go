package link

import (
	"testing"

	"taq/internal/packet"
	"taq/internal/queue"
	"taq/internal/sim"
)

func TestTxTime(t *testing.T) {
	// 500 bytes at 1 Mbps = 4 ms.
	if got := (1 * Mbps).TxTime(500); got != 4*sim.Millisecond {
		t.Errorf("TxTime = %v, want 4ms", got)
	}
	if (Bps(0)).TxTime(500) != 0 {
		t.Error("zero rate should give zero tx time")
	}
}

func TestLinkSerialization(t *testing.T) {
	e := sim.NewEngine(1)
	var arrivals []sim.Time
	l := New(e, 1*Mbps, 10*sim.Millisecond, queue.NewDropTail(100), func(p *packet.Packet) {
		arrivals = append(arrivals, e.Now())
	})
	for i := 0; i < 3; i++ {
		l.Enqueue(&packet.Packet{Size: 500, Seq: i})
	}
	e.Run()
	// Packet i finishes serialization at (i+1)*4ms, arrives +10ms prop.
	want := []sim.Time{14 * sim.Millisecond, 18 * sim.Millisecond, 22 * sim.Millisecond}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, arrivals[i], want[i])
		}
	}
	if l.SentPackets != 3 || l.SentBytes != 1500 {
		t.Errorf("stats: %d pkts %d bytes", l.SentPackets, l.SentBytes)
	}
}

// TestZeroDelayLinkDeliversInTransmitDone: with no propagation delay
// the packet reaches the sink inside the event that ends its
// serialization, at the same virtual time; a link with a delay
// delivers it one event later, one delay out.
func TestZeroDelayLinkDeliversInTransmitDone(t *testing.T) {
	for _, tc := range []struct {
		delay  sim.Time
		at     sim.Time
		events uint64
	}{
		{0, 4 * sim.Millisecond, 1},
		{sim.Millisecond, 5 * sim.Millisecond, 2},
	} {
		e := sim.NewEngine(1)
		var at sim.Time
		var events uint64
		l := New(e, 1*Mbps, tc.delay, queue.NewDropTail(10), func(*packet.Packet) {
			at, events = e.Now(), e.Processed
		})
		l.Enqueue(&packet.Packet{Size: 500})
		e.Run()
		if at != tc.at || events != tc.events {
			t.Errorf("delay %v: delivered at %v as event %d, want %v as event %d", tc.delay, at, events, tc.at, tc.events)
		}
	}
}

func TestLinkUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	l := New(e, 1*Mbps, 0, queue.NewDropTail(100), func(*packet.Packet) {})
	for i := 0; i < 25; i++ { // 25 * 4ms = 100ms busy
		l.Enqueue(&packet.Packet{Size: 500})
	}
	e.Run()
	u := l.Utilization(200 * sim.Millisecond)
	if u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %f, want 0.5", u)
	}
	if l.Utilization(0) != 0 {
		t.Error("zero elapsed should give 0 utilization")
	}
}

func TestLinkDropsViaDiscipline(t *testing.T) {
	e := sim.NewEngine(1)
	q := queue.NewDropTail(2)
	drops := 0
	q.AddDropHook(func(*packet.Packet) { drops++ })
	l := New(e, 1*Mbps, 0, q, func(*packet.Packet) {})
	// Burst of 10 while one is in flight: 1 transmitting + 2 queued.
	for i := 0; i < 10; i++ {
		l.Enqueue(&packet.Packet{Size: 500})
	}
	e.Run()
	if drops != 7 {
		t.Errorf("drops = %d, want 7", drops)
	}
	if l.SentPackets != 3 {
		t.Errorf("sent = %d, want 3", l.SentPackets)
	}
}

func TestLinkResumesAfterIdle(t *testing.T) {
	e := sim.NewEngine(1)
	var n int
	l := New(e, 1*Mbps, 0, queue.NewDropTail(10), func(*packet.Packet) { n++ })
	l.Enqueue(&packet.Packet{Size: 500})
	e.Run()
	// Link went idle; enqueue again later.
	e.Schedule(time500ms, func() { l.Enqueue(&packet.Packet{Size: 500}) })
	e.Run()
	if n != 2 {
		t.Errorf("delivered = %d, want 2", n)
	}
}

const time500ms = 500 * sim.Millisecond
