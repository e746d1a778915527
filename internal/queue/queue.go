// Package queue defines the queue-discipline interface used at the
// bottleneck link, plus the baseline disciplines the paper compares
// against: DropTail (§2.3), Random Early Detection and Stochastic Fair
// Queueing (§2.4). The TAQ discipline itself lives in internal/core and
// implements the same interface.
package queue

import "taq/internal/packet"

// Discipline is a bottleneck queue. Implementations decide internally
// which packet to drop on overflow (not necessarily the arriving one)
// and report every drop through the drop hook so senders' in-flight
// accounting and scenario statistics stay correct.
//
// Disciplines are driven from a single sim.Runner and need no locking.
type Discipline interface {
	// Enqueue offers p to the queue. If the discipline drops a packet
	// (the arriving one or a queued victim) it must invoke the drop
	// hook for it.
	Enqueue(p *packet.Packet)
	// Dequeue removes and returns the next packet to transmit, or nil
	// if the queue is empty.
	Dequeue() *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the total queued bytes.
	Bytes() int
	// AddDropHook registers fn to be called for every dropped packet,
	// alongside the hooks already registered, so stats accounting and
	// tracing subscribers coexist. Hooks run in registration order.
	AddDropHook(fn func(*packet.Packet))
}

// DropHook is a helper embedded by disciplines to hold the chain of
// drop callbacks.
type DropHook struct {
	fns []func(*packet.Packet)
}

// AddDropHook implements the Discipline method: it appends fn to the
// chain.
func (h *DropHook) AddDropHook(fn func(*packet.Packet)) {
	if fn != nil {
		h.fns = append(h.fns, fn)
	}
}

// Drop invokes every registered hook for p, in registration order.
func (h *DropHook) Drop(p *packet.Packet) {
	for _, fn := range h.fns {
		fn(p)
	}
}

// FIFO is a simple growable ring buffer of packets, the building block
// for every discipline in this package.
type FIFO struct {
	buf   []*packet.Packet
	head  int
	n     int
	bytes int
}

// Len returns the number of queued packets.
func (f *FIFO) Len() int { return f.n }

// Bytes returns the total queued bytes.
func (f *FIFO) Bytes() int { return f.bytes }

// Push appends p at the tail.
func (f *FIFO) Push(p *packet.Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)%len(f.buf)] = p
	f.n++
	f.bytes += p.Size
}

// Pop removes and returns the head packet, or nil if empty.
func (f *FIFO) Pop() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	f.bytes -= p.Size
	return p
}

// Peek returns the head packet without removing it, or nil if empty.
func (f *FIFO) Peek() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	return f.buf[f.head]
}

// PopTail removes and returns the most recently pushed packet, or nil
// if empty. Used by disciplines that drop from the tail of a victim
// queue.
func (f *FIFO) PopTail() *packet.Packet {
	if f.n == 0 {
		return nil
	}
	i := (f.head + f.n - 1) % len(f.buf)
	p := f.buf[i]
	f.buf[i] = nil
	f.n--
	f.bytes -= p.Size
	return p
}

func (f *FIFO) grow() {
	size := len(f.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]*packet.Packet, size) //taq:allow noalloc amortized doubling; capacity is retained for the FIFO's lifetime
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	f.buf = nb
	f.head = 0
}
