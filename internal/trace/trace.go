// Package trace provides the access-log substrate for the paper's
// trace-driven experiments. The authors replay Squid proxy logs and
// tcpdump traces from India and Ghana (Figs 1, 12); those traces are
// not available, so this package generates synthetic logs with the
// same aggregate shape — many clients, Poisson request arrivals, and
// heavy-tailed object sizes spanning 100 B to ~100 MB (log-normal body
// plus Pareto tail) — and reads/writes them in a plain text format so
// real logs can be substituted if available.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"taq/internal/sim"
)

// Record is one access-log entry: at Time, client Client requested an
// object of Size bytes.
type Record struct {
	Time   sim.Time
	Client int
	Size   int
}

// GenConfig parameterizes the synthetic log generator. The defaults
// (via DefaultGenConfig) match the paper's §2.2 observation window: a
// 2-hour peak period, ~221 clients, ~1.5 GB downloaded.
type GenConfig struct {
	Seed     int64
	Duration sim.Time
	Clients  int
	// RequestsPerClientPerMin sets each client's Poisson request rate.
	RequestsPerClientPerMin float64
	// Object size model: log-normal body (median SizeMedian bytes,
	// log-space sigma SizeSigma) with probability 1−TailProb, Pareto
	// tail (scale TailMin, shape TailAlpha) with probability TailProb.
	SizeMedian float64
	SizeSigma  float64
	TailProb   float64
	TailMin    float64
	TailAlpha  float64
	// MinSize and MaxSize clamp object sizes.
	MinSize, MaxSize int
}

// DefaultGenConfig returns the paper-matched generator settings.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:                    1,
		Duration:                2 * 3600 * sim.Second,
		Clients:                 221,
		RequestsPerClientPerMin: 1.5,
		SizeMedian:              8 * 1024,
		SizeSigma:               1.6,
		TailProb:                0.015,
		TailMin:                 256 * 1024,
		TailAlpha:               1.1,
		MinSize:                 100,
		MaxSize:                 100 << 20,
	}
}

// Generate produces a synthetic access log sorted by time.
func Generate(cfg GenConfig) []Record {
	if cfg.Clients < 1 || cfg.Duration <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	meanGap := 60.0 / math.Max(cfg.RequestsPerClientPerMin, 1e-9)
	var recs []Record
	for c := 0; c < cfg.Clients; c++ {
		t := sim.FromSeconds(rng.ExpFloat64() * meanGap)
		for t < cfg.Duration {
			recs = append(recs, Record{Time: t, Client: c, Size: cfg.sampleSize(rng)})
			t += sim.FromSeconds(rng.ExpFloat64() * meanGap)
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Time != recs[j].Time {
			return recs[i].Time < recs[j].Time
		}
		return recs[i].Client < recs[j].Client
	})
	return recs
}

func (cfg GenConfig) sampleSize(rng *rand.Rand) int {
	var s float64
	if rng.Float64() < cfg.TailProb {
		// Pareto: min / U^(1/alpha).
		s = cfg.TailMin / math.Pow(rng.Float64(), 1/cfg.TailAlpha)
	} else {
		s = cfg.SizeMedian * math.Exp(cfg.SizeSigma*rng.NormFloat64())
	}
	size := int(s)
	if size < cfg.MinSize {
		size = cfg.MinSize
	}
	if size > cfg.MaxSize {
		size = cfg.MaxSize
	}
	return size
}

// TotalBytes sums the object sizes of the log.
func TotalBytes(recs []Record) int64 {
	var t int64
	for _, r := range recs {
		t += int64(r.Size)
	}
	return t
}

// Clients returns the number of distinct clients in the log.
func Clients(recs []Record) int {
	seen := make(map[int]bool)
	for _, r := range recs {
		seen[r.Client] = true
	}
	return len(seen)
}

// Write emits the log in the text format "seconds client size", one
// record per line.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := fmt.Fprintf(bw, "%.6f %d %d\n", r.Time.Seconds(), r.Client, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxTime bounds the times of a log Parse accepts: below 2^53 ns (about
// 104 days) a float64 number of seconds holds every nanosecond exactly,
// so what Write prints reads back as the same text.
const maxTime = sim.Time(1) << 53

// Parse reads a log in Write's format. It rejects, naming the line, a
// record the replay cannot represent: a time that is negative, not
// finite or 2^53 ns (about 104 days) or later, a client outside
// [0, 2^31−1] (the range of a flow pool), or a size below one byte.
func Parse(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var secs float64
		var client, size int
		if _, err := fmt.Sscanf(text, "%f %d %d", &secs, &client, &size); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		// Negated so that NaN, which fails every comparison, is caught.
		if ns := secs * float64(sim.Second); !(ns >= 0 && ns < float64(maxTime)) {
			return nil, fmt.Errorf("trace: line %d: time %v s is not in [0, %v)", line, secs, maxTime)
		}
		if client < 0 || client > math.MaxInt32 {
			return nil, fmt.Errorf("trace: line %d: client %d is outside [0, %d]", line, client, math.MaxInt32)
		}
		if size < 1 {
			return nil, fmt.Errorf("trace: line %d: size %d is below one byte", line, size)
		}
		recs = append(recs, Record{Time: sim.FromSeconds(secs), Client: client, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Window filters the log to records in [from, to).
func Window(recs []Record, from, to sim.Time) []Record {
	var out []Record
	for _, r := range recs {
		if r.Time >= from && r.Time < to {
			out = append(out, r)
		}
	}
	return out
}
