package core

import (
	"testing"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// FuzzTrackerTransitions drives the per-flow state machine with an
// arbitrary interleaving of SYNs, data (new and retransmitted), acks,
// TAQ drops, time advances, and silence scans. The tracker must never
// panic and must keep every flow inside the declared state set with
// sane bookkeeping, no matter how hostile the observation order is —
// the middlebox cannot choose what the network shows it.
func FuzzTrackerTransitions(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33})
	f.Add([]byte{0x05, 0x10, 0x25, 0x30, 0x45, 0x50, 0x65, 0x70})
	// One flow: syn, data, rtx, drop, long silence, scan, recovery.
	f.Add([]byte{0x00, 0x10, 0x20, 0x40, 0xf5, 0x50, 0x20})
	// Interleave two flows with drops and scans.
	f.Add([]byte{0x00, 0x01, 0x10, 0x11, 0x40, 0x31, 0x55, 0x10, 0x21})

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig(link.Bps(10_000_000), 50)
		tr := newTracker(eng, cfg, &Stats{})

		seqs := map[packet.FlowID]int{} // next fresh sequence per flow

		for _, b := range data {
			op := int(b >> 4)
			flow := packet.FlowID(b&0x03) + 1
			// Advance a quarter epoch per op, more for high nibbles, so
			// silences and epoch rolls are reachable within small inputs.
			step := cfg.DefaultEpoch / 4 * sim.Time(1+op)
			eng.RunUntil(eng.Now() + step)

			switch op % 6 {
			case 0: // connection open (or SYN retry)
				tr.observe(&packet.Packet{Flow: flow, Kind: packet.Syn, Size: 40})
			case 1: // fresh data
				p := &packet.Packet{Flow: flow, Kind: packet.Data, Seq: seqs[flow], Size: 500}
				seqs[flow]++
				tr.observe(p)
				tr.observeForwarded(p)
			case 2: // retransmission of the oldest segment
				p := &packet.Packet{Flow: flow, Kind: packet.Data, Seq: 0, Size: 500, Retransmit: true}
				tr.observe(p)
				tr.observeForwarded(p)
			case 3: // returning ack for everything sent so far
				tr.observeReverse(&packet.Packet{Flow: flow, Kind: packet.Ack, CumAck: seqs[flow], Size: 40})
			case 4: // TAQ drops this flow's next packet
				p := &packet.Packet{Flow: flow, Kind: packet.Data, Seq: seqs[flow], Size: 500}
				_, rtx := tr.observe(p)
				tr.recordDrop(p, rtx)
			case 5: // periodic silence scan
				tr.scan()
			}

			for i := range tr.store.recs {
				fl := &tr.store.recs[i]
				if !fl.inUse {
					continue
				}
				if int(fl.state) >= numFlowStates {
					t.Fatalf("flow %d in undeclared state %d", fl.id, fl.state)
				}
				if slot, ok := tr.store.idx.get(int32(fl.id)); !ok || slot != int32(i) {
					t.Fatalf("flow %d in slot %d indexed as (%d,%v)", fl.id, i, slot, ok)
				}
				if fl.epoch <= 0 {
					t.Fatalf("flow %d epoch %v not positive", fl.id, fl.epoch)
				}
				if fl.outstandingDrops < 0 {
					t.Fatalf("flow %d outstandingDrops %d negative", fl.id, fl.outstandingDrops)
				}
			}
			// The census partitions the flow table: every flow is in
			// exactly one declared state.
			total := 0
			for st, n := range tr.stateCensus() {
				if st >= numFlowStates || n < 0 {
					t.Fatalf("census has state %v -> %d", st, n)
				}
				total += n
			}
			if total != tr.store.len() {
				t.Fatalf("census counts %d flows, table has %d", total, tr.store.len())
			}
			// Every incremental aggregate must match a from-scratch walk
			// of the flow table, no matter the observation order.
			checkTrackerEquivalence(t, tr, eng.Now())
		}
	})
}
