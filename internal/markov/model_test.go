package markov

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func stationaryOf(t *testing.T, c *Chain) []float64 {
	t.Helper()
	pi, err := c.Stationary()
	if err != nil {
		t.Fatalf("Stationary: %v", err)
	}
	return pi
}

func TestPartialModelValidates(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.45} {
		c, err := PartialModel(p, 6)
		if err != nil {
			t.Fatalf("PartialModel(%v): %v", p, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("p=%v: %v", p, err)
		}
	}
}

func TestPartialModelRejectsBadParams(t *testing.T) {
	for _, p := range []float64{-0.1, 0, 0.5, 0.9} {
		if _, err := PartialModel(p, 6); err == nil {
			t.Errorf("PartialModel(%v) accepted invalid p", p)
		}
	}
	if _, err := PartialModel(0.1, 3); err == nil {
		t.Error("PartialModel accepted Wmax=3")
	}
}

func TestStationarySumsToOne(t *testing.T) {
	for _, p := range []float64{0.02, 0.1, 0.3} {
		c, _ := PartialModel(p, 6)
		pi := stationaryOf(t, c)
		sum := 0.0
		for _, v := range pi {
			if v < 0 {
				t.Errorf("p=%v: negative stationary entry %v", p, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("p=%v: sum = %v", p, sum)
		}
	}
}

func TestStationaryMatchesPowerIteration(t *testing.T) {
	for _, build := range []func(p float64) (*Chain, error){
		func(p float64) (*Chain, error) { return PartialModel(p, 6) },
		func(p float64) (*Chain, error) { return FullModel(p, 6, 4) },
	} {
		for _, p := range []float64{0.05, 0.15, 0.3} {
			c, err := build(p)
			if err != nil {
				t.Fatal(err)
			}
			direct := stationaryOf(t, c)
			power := c.StationaryPower(20000)
			for i := range direct {
				if math.Abs(direct[i]-power[i]) > 1e-6 {
					t.Errorf("p=%v state %s: direct %v vs power %v",
						p, c.Labels[i], direct[i], power[i])
				}
			}
		}
	}
}

func TestLowLossMostlyAtWmax(t *testing.T) {
	c, _ := PartialModel(0.005, 6)
	pi := stationaryOf(t, c)
	if top := pi[c.StateIndex("S6")]; top < 0.8 {
		t.Errorf("at p=0.005 S6 mass = %v, want ≥0.8 (flow should sit at Wmax)", top)
	}
	if m := c.TimeoutMass(pi); m > 0.05 {
		t.Errorf("timeout mass %v at p=0.005, want tiny", m)
	}
}

func TestHighLossMostlyTimedOut(t *testing.T) {
	c, _ := PartialModel(0.35, 6)
	pi := stationaryOf(t, c)
	if m := c.TimeoutMass(pi); m < 0.7 {
		t.Errorf("timeout mass %v at p=0.35, want ≥0.7", m)
	}
}

func TestTimeoutMassMonotonic(t *testing.T) {
	ps := []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	curve, err := TimeoutCurve(ps, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Errorf("timeout mass decreased: p=%v→%v mass %v→%v",
				ps[i-1], ps[i], curve[i-1], curve[i])
		}
	}
}

func TestTippingPointNearTenPercent(t *testing.T) {
	// §3.2: "when the loss rate jumps beyond 10%, the probability of
	// timeouts rapidly increases". Half the stationary mass in
	// timeout states is a natural reading of the knee.
	p, err := TippingPoint(0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.05 || p > 0.2 {
		t.Errorf("tipping point = %v, want in [0.05, 0.2] (paper: ≈0.1)", p)
	}
	t.Logf("tipping point (timeout mass ≥ 0.5): p = %.3f", p)
}

func TestExpectedIdleEpochsClosedForm(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0, 1},    // no repeats: one idle epoch
		{0.25, 2}, // 1/(1-0.5)
		{0.4, 5},  // 1/(1-0.8)
		{0.125, 4. / 3},
	}
	for _, c := range cases {
		if got := ExpectedIdleEpochs(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ExpectedIdleEpochs(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(ExpectedIdleEpochs(0.5)) || !math.IsNaN(ExpectedIdleEpochs(-0.1)) {
		t.Error("out-of-domain p should yield NaN")
	}
}

func TestBstarMeanOccupancyMatchesClosedForm(t *testing.T) {
	// The b* self-loop probability 2p gives a geometric stay of mean
	// 1/(1−2p): verify the chain encodes exactly that.
	for _, p := range []float64{0.1, 0.2, 0.3} {
		c, _ := PartialModel(p, 6)
		b := c.StateIndex("b*")
		stay := c.P[b][b]
		mean := 1 / (1 - stay)
		if math.Abs(mean-ExpectedIdleEpochs(p)) > 1e-12 {
			t.Errorf("p=%v: chain mean stay %v, closed form %v", p, mean, ExpectedIdleEpochs(p))
		}
	}
}

func TestSentDistributionSumsToOne(t *testing.T) {
	c, _ := PartialModel(0.15, 6)
	pi := stationaryOf(t, c)
	dist := c.SentDistribution(pi)
	sum := 0.0
	for _, v := range dist {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sent distribution sums to %v", sum)
	}
	// Groups 0..wmax all present.
	for g := 0; g <= 6; g++ {
		if _, ok := dist[g]; !ok {
			t.Errorf("group %d missing", g)
		}
	}
}

func TestFullModelValidates(t *testing.T) {
	for _, p := range []float64{0.05, 0.15, 0.3} {
		for _, k := range []int{1, 3, 5} {
			c, err := FullModel(p, 6, k)
			if err != nil {
				t.Fatalf("FullModel(%v, 6, %d): %v", p, k, err)
			}
			if err := c.Validate(); err != nil {
				t.Errorf("p=%v k=%d: %v", p, k, err)
			}
		}
	}
	if _, err := FullModel(0.1, 6, 0); err == nil {
		t.Error("FullModel accepted 0 stages")
	}
}

func TestFullModelDeeperStagesVisitedLessOften(t *testing.T) {
	// The retransmit states R_i are each occupied exactly one epoch
	// per passage, so their stationary mass tracks the visit rate:
	// deeper backoff stages must be entered less often. (The buffer
	// states B_i need not be monotone — occupancy doubles per stage.)
	c, err := FullModel(0.2, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	pi := stationaryOf(t, c)
	prev := math.Inf(1)
	for i := 1; i <= 4; i++ {
		m := pi[c.StateIndex("R"+string(rune('0'+i)))]
		if m > prev+1e-12 {
			t.Errorf("R%d visit mass %v exceeds R%d mass %v", i, m, i-1, prev)
		}
		prev = m
	}
}

func TestFullAndPartialModelsAgreeRoughly(t *testing.T) {
	// The two models aggregate repetitive timeouts differently (the
	// full model tracks backoff memory through the tainted S2 states,
	// so it is somewhat heavier at high p) but must tell the same
	// story: similar timeout mass, and both past 50% by p=0.25.
	for _, p := range []float64{0.05, 0.1, 0.2, 0.3} {
		cp, _ := PartialModel(p, 6)
		cf, _ := FullModel(p, 6, 6)
		pip := stationaryOf(t, cp)
		pif := stationaryOf(t, cf)
		mp, mf := cp.TimeoutMass(pip), cf.TimeoutMass(pif)
		if math.Abs(mp-mf) > 0.2 {
			t.Errorf("p=%v: partial timeout mass %v vs full %v", p, mp, mf)
		}
		if p >= 0.25 && (mp < 0.5 || mf < 0.5) {
			t.Errorf("p=%v: expected both models past 50%% timeout mass (got %v, %v)", p, mp, mf)
		}
	}
}

func TestChainValidateCatchesBadRows(t *testing.T) {
	c := &Chain{
		Labels: []string{"a", "b"},
		Group:  []int{0, 1},
		P:      [][]float64{{0.5, 0.4}, {0, 1}}, // row 0 sums to 0.9
	}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted non-stochastic row")
	}
	c.P[0][1] = 0.5
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected valid chain: %v", err)
	}
}

func TestStateIndexMissing(t *testing.T) {
	c, _ := PartialModel(0.1, 6)
	if c.StateIndex("nope") != -1 {
		t.Error("StateIndex should return -1 for unknown label")
	}
}

// Property: for random valid p and wmax, the stationary distribution
// exists, is a probability vector, and timeout mass is in [0,1].
func TestStationaryProperty(t *testing.T) {
	f := func(pRaw uint16, wRaw uint8) bool {
		p := 0.01 + 0.47*float64(pRaw)/65535
		wmax := 4 + int(wRaw)%8
		c, err := PartialModel(p, wmax)
		if err != nil {
			return false
		}
		pi, err := c.Stationary()
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range pi {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
			sum += v
		}
		m := c.TimeoutMass(pi)
		return math.Abs(sum-1) < 1e-9 && m >= 0 && m <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestWmaxExtensionKeepsLowLossConcentration(t *testing.T) {
	// §3.1: "the model may be extended to higher states by increasing
	// Wmax". At small p the mass must concentrate in the top window
	// states for any Wmax.
	// Single losses trigger fast retransmit (halving), so the mass
	// concentrates in the upper half of the window range rather than
	// strictly at Wmax.
	for _, wmax := range []int{6, 8, 10} {
		c, _ := PartialModel(0.01, wmax)
		pi := stationaryOf(t, c)
		top := 0.0
		for w := wmax / 2; w <= wmax; w++ {
			top += pi[c.StateIndex(fmt.Sprintf("S%d", w))]
		}
		if top < 0.9 {
			t.Errorf("Wmax=%d: upper-half window mass %v, want ≥0.9 at p=0.01", wmax, top)
		}
	}
}

func TestExpectedThroughputDecreasingInLoss(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{0.02, 0.1, 0.2, 0.3, 0.4} {
		c, _ := PartialModel(p, 6)
		pi := stationaryOf(t, c)
		th := c.ExpectedThroughput(pi)
		if th <= 0 || th > 6 {
			t.Errorf("p=%v: throughput %v outside (0, 6]", p, th)
		}
		if th >= prev {
			t.Errorf("p=%v: throughput %v not decreasing (prev %v)", p, th, prev)
		}
		prev = th
	}
}
