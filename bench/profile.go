package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profile runtime/pprof
// writes: just the sample stacks and the function names, which is all
// layer attribution needs, so the module gains no dependency.

type profile struct {
	// stacks holds each sample's frames as function names, leaf first,
	// inlined frames expanded; counts the sample's first value (the
	// number of profiling ticks).
	stacks [][]string
	counts []int64
}

// pbField is one decoded protobuf field: varint fields carry v,
// length-delimited fields carry b.
type pbField struct {
	num int
	v   uint64
	b   []byte
}

var errProto = errors.New("bench: malformed profile")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.v, b, err = pbVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := pbVarint(b)
			if err != nil || n > uint64(len(rest)) {
				return nil, errProto
			}
			f.b, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbRepeated reads a repeated varint field, packed or not.
func pbRepeated(f pbField, into []uint64) ([]uint64, error) {
	if f.b == nil {
		return append(into, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// Field numbers of profile.proto.
const (
	profSample, profLocation, profFunction, profStrings = 2, 4, 5, 6
	sampleLocationID, sampleValue                       = 1, 2
	locationID, locationLine                            = 1, 4
	lineFunctionID                                      = 1
	functionID, functionName                            = 1, 2
)

func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	for _, f := range top {
		if f.b == nil && f.num != profStrings {
			continue
		}
		switch f.num {
		case profStrings:
			strs = append(strs, string(f.b))
		case profFunction:
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case functionID:
					id = x.v
				case functionName:
					name = x.v
				}
			}
			funcName[id] = name
		case profLocation:
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch x.num {
				case locationID:
					id = x.v
				case locationLine:
					ls, err := pbFields(x.b)
					if err != nil {
						return nil, err
					}
					for _, y := range ls {
						if y.num == lineFunctionID {
							fns = append(fns, y.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case profSample:
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			var vals []uint64
			for _, x := range fs {
				switch x.num {
				case sampleLocationID:
					if s.locs, err = pbRepeated(x, s.locs); err != nil {
						return nil, err
					}
				case sampleValue:
					if vals, err = pbRepeated(x, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		}
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined call
			// outward, matching the stack's leaf-first order.
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

// layerOf attributes one stack to a layer: the deepest frame inside
// taq/internal/<layer> wins, so the map iteration under BestVictim is
// core's time and the allocation under a sender is tcp's, not the
// runtime's. A stack with taq frames but none in a listed layer is
// other; with only the harness's frames, harness; with neither (GC
// workers, the scheduler, timer goroutines), runtime_bg. A stack inside
// the host-speed reference kernel belongs to no layer ("").
func layerOf(stack []string) string {
	const internal = "taq/internal/"
	sawTaq, sawHarness := false, false
	for _, fn := range stack {
		switch {
		case strings.HasSuffix(fn, ".(*hostRef).maybe"):
			return ""
		case strings.HasPrefix(fn, internal):
			name := fn[len(internal):]
			if i := strings.IndexAny(name, "./"); i >= 0 {
				name = name[:i]
			}
			for _, l := range cpuLayers {
				if l == name {
					return name
				}
			}
			sawTaq = true
		case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "taq/bench."):
			sawHarness = true
		case strings.HasPrefix(fn, "taq.") || strings.HasPrefix(fn, "taq/"):
			sawTaq = true
		}
	}
	switch {
	case sawTaq:
		return "other"
	case sawHarness:
		return "harness"
	}
	return "runtime_bg"
}

// cpuShares turns a profile into each layer's share of the samples,
// and the number of samples behind the shares.
func cpuShares(p *profile) (map[string]float64, int64) {
	shares := map[string]float64{}
	var total int64
	for i, st := range p.stacks {
		// The reference kernel's time is taken out of every metered
		// section, so out of the shares too.
		if l := layerOf(st); l != "" {
			shares[l] += float64(p.counts[i])
			total += p.counts[i]
		}
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares, total
}

func cpuSharesOf(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	shares, n := cpuShares(p)
	return shares, n, nil
}
