package core

import (
	"runtime"
	"testing"
	"unsafe"

	"taq/internal/link"
	"taq/internal/packet"
	"taq/internal/sim"
)

// TestTrackerFootprint holds what a tracked flow costs the heap. It
// drives a one-shard middlebox to 100 k tracked flows through the
// public packet path — SYNs, data, retransmissions, acks and dequeues,
// with eight flows to a pool — lets the scan tick run over them, and
// after a GC divides the heap the middlebox holds by the flows it
// tracks. The composition (record array, wheel chunks and heads, flow
// index and free list, pool table) is printed on failure: a record or
// entry that grows shows up here in go test, not only in the benchmark
// suite's heap_mb.
func TestTrackerFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the bound is for 64-bit targets")
	}
	const (
		flows = 100_000
		// maxPerFlow is the bound: 168-byte records in full pages,
		// 8-byte wheel entries (three a flow here) and 24-byte pool
		// entries come to 224 B; 200-byte records in one slice grown by
		// append and 16-byte entries came to 331.
		maxPerFlow = 260
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	eng := sim.NewEngine(1)
	mb := NewSharded(eng, DefaultConfig(10*link.Mbps, 256), 1)
	mb.Start()
	seqs := make([]int32, flows)
	var now sim.Time
	// Four passes over the id space, 2 000 operations per 10 ms step:
	// every flow is created by a SYN and then sees data, and the scan
	// runs every ten steps over a table that keeps growing.
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < flows; i++ {
			if i%2000 == 0 {
				now += 10 * sim.Millisecond
				eng.RunUntil(now)
			}
			fl := packet.FlowID(i + 1)
			p := &packet.Packet{Flow: fl, Pool: packet.PoolID(fl / 8), Kind: packet.Data, Seq: int(seqs[i]), Size: 500}
			switch {
			case pass == 0:
				p.Kind, p.Size = packet.Syn, 40
			case pass == 3 && i%5 == 0:
				p.Seq, p.Retransmit = max(int(seqs[i])-1, 0), true
			case pass == 2 && i%3 == 0:
				mb.ObserveReverse(&packet.Packet{Flow: fl, Pool: p.Pool, Kind: packet.Ack, CumAck: int(seqs[i]), Size: 40})
				fallthrough
			default:
				seqs[i]++
			}
			mb.Enqueue(p)
			mb.Dequeue()
		}
	}
	// Scan ticks over the full table.
	for k := 0; k < 5; k++ {
		now += 100 * sim.Millisecond
		eng.RunUntil(now)
	}
	for mb.Dequeue() != nil {
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	tr := mb.Shard(0).tracker
	n := tr.store.len()
	if n != flows {
		t.Fatalf("tracker holds %d flows, want %d", n, flows)
	}
	perFlow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)

	records := cap(tr.store.pages) * int(unsafe.Sizeof([]flowInfo{}))
	for _, pg := range tr.store.pages {
		records += cap(pg) * int(unsafe.Sizeof(flowInfo{}))
	}
	chunks := cap(tr.chunks.chunks)*int(unsafe.Sizeof(wheelChunk{})) +
		(len(tr.actWheel.heads)+len(tr.scanWheel.heads))*4
	index := (cap(tr.store.idx.keys)+cap(tr.store.idx.slots)+cap(tr.store.free))*4 + cap(tr.due)*8
	pools := cap(tr.pools.recs)*int(unsafe.Sizeof(poolEntry{})) +
		(cap(tr.pools.idx.keys)+cap(tr.pools.idx.slots)+cap(tr.pools.free))*4
	split := func() {
		for _, c := range []struct {
			what  string
			bytes int
		}{{"records", records}, {"wheel chunks + heads", chunks}, {"flow index + free list + due", index}, {"pool table", pools}} {
			t.Logf("%-28s %10d B  %6.1f B/flow", c.what, c.bytes, float64(c.bytes)/float64(n))
		}
		t.Logf("%d records of %d B in %d pages, %d wheel entries in %d chunks of %d (%.2f per flow)",
			tr.store.n, unsafe.Sizeof(flowInfo{}), len(tr.store.pages),
			tr.actWheel.n+tr.scanWheel.n, len(tr.chunks.chunks), chunkEntries,
			float64(tr.actWheel.n+tr.scanWheel.n)/float64(n))
	}
	runtime.KeepAlive(mb)
	if perFlow > maxPerFlow {
		split()
		t.Fatalf("heap per tracked flow = %.1f B, bound %d B", perFlow, maxPerFlow)
	}
	if testing.Verbose() {
		split()
		t.Logf("heap per tracked flow = %.1f B", perFlow)
	}
}
