package core

import (
	"testing"
	"unsafe"
)

// TestRecordLayout pins the record sizes and the hot-core edge the
// million-flow numbers depend on, against the compiler that builds the
// binary: a field added to, or moved across the boundary of, one of
// these structs is a deliberate layout decision that updates this table,
// not a drive-by.
func TestRecordLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pins are for 64-bit targets")
	}
	var f flowInfo
	for _, pin := range []struct {
		what      string
		got, want uintptr
	}{
		{"sizeof(flowInfo)", unsafe.Sizeof(f), 200},
		// The per-packet hot core is [0, end of invTerm).
		{"end of flowInfo.invTerm", unsafe.Offsetof(f.invTerm) + unsafe.Sizeof(f.invTerm), 136},
		{"sizeof(deadlineEntry)", unsafe.Sizeof(deadlineEntry{}), 16},
		// A wheel chunk is two whole cache lines: a power of two, so
		// chunks in the arena never straddle a third.
		{"sizeof(wheelChunk)", unsafe.Sizeof(wheelChunk{}), 128},
		{"sizeof(poolEntry)", unsafe.Sizeof(poolEntry{}), 32},
		// The index header is exactly one cache line; the tracker is
		// padded to whole lines so shard headers never share one.
		{"sizeof(oaIndex)", unsafe.Sizeof(oaIndex{}), 64},
		{"sizeof(tracker) % 64", unsafe.Sizeof(tracker{}) % 64, 0},
	} {
		if pin.got != pin.want {
			t.Errorf("%s = %d, pinned at %d", pin.what, pin.got, pin.want)
		}
	}
}
