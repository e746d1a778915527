package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromDuration = %v", got)
	}
	if (1500 * Millisecond).String() != "1.500s" {
		t.Errorf("String() = %q", (1500 * Millisecond).String())
	}
	if (2 * Second).Duration() != 2*time.Second {
		t.Errorf("Duration() = %v", (2 * Second).Duration())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3*Second, func() { order = append(order, 3) })
	e.Schedule(1*Second, func() { order = append(order, 1) })
	e.Schedule(2*Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 3*Second {
		t.Errorf("clock = %v, want 3s", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(Second, func() { fired = true })
	tm.Cancel()
	if !tm.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	e.Run()
	if fired {
		t.Error("canceled timer fired")
	}
	// Canceling again (and canceling nil) must not panic.
	tm.Cancel()
	var nilTimer *Timer
	nilTimer.Cancel()
	if nilTimer.Canceled() {
		t.Error("nil timer reports canceled")
	}
}

func TestEngineScheduleFromCallback(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	e.Schedule(Second, func() {
		hits = append(hits, e.Now())
		e.Schedule(Second, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != Second || hits[1] != 2*Second {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(5 * Second)
	var at Time = -1
	e.Schedule(-3*Second, func() { at = e.Now() })
	e.Run()
	if at != 5*Second {
		t.Errorf("negative delay fired at %v, want 5s", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i)*Second, func() { count++ })
	}
	e.RunUntil(5 * Second)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 5*Second {
		t.Errorf("now = %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d, want 5", e.Pending())
	}
	e.RunUntil(20 * Second)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 20*Second {
		t.Errorf("now advanced to %v, want 20s (idle advance)", e.Now())
	}
}

func TestEngineRunUntilSkipsCanceled(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	t1 := e.Schedule(Second, func() { fired++ })
	e.Schedule(2*Second, func() { fired++ })
	t1.Cancel()
	e.RunUntil(3 * Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := NewEngine(seed)
		var vals []float64
		var step func()
		step = func() {
			vals = append(vals, e.Rand().Float64())
			if len(vals) < 50 {
				e.Schedule(Time(e.Rand().Intn(1000))*Millisecond, step)
			}
		}
		e.Schedule(0, step)
		e.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical runs")
	}
}

// Property: for any batch of scheduled delays, events fire in
// nondecreasing time order and the clock equals each event's time.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		e := NewEngine(7)
		var fireTimes []Time
		for _, d := range delaysMs {
			d := Time(d) * Millisecond
			e.Schedule(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestTimerWhen(t *testing.T) {
	e := NewEngine(1)
	tm := e.Schedule(7*Second, func() {})
	if tm.When() != 7*Second {
		t.Errorf("When() = %v, want 7s", tm.When())
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i)*Second, func() {})
	}
	e.Run()
	if e.Processed != 5 {
		t.Errorf("Processed = %d, want 5", e.Processed)
	}
}

func TestEnginePendingExcludesCanceled(t *testing.T) {
	e := NewEngine(1)
	timers := make([]*Timer, 6)
	for i := range timers {
		timers[i] = e.Schedule(Time(i+1)*Second, func() {})
	}
	timers[1].Cancel()
	timers[4].Cancel()
	if got := e.Pending(); got != 4 {
		t.Errorf("Pending() = %d after 2 of 6 canceled, want 4", got)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", e.Pending())
	}
}

func TestCancelDropsCallbackReference(t *testing.T) {
	e := NewEngine(1)
	tm := e.Schedule(Second, func() {})
	tm.Cancel()
	// The closure must be released at Cancel time, not when the event
	// would have fired — canceled RTO timers must not pin senders.
	if tm.fn != nil {
		t.Error("Cancel left fn set")
	}
	if tm.index != -1 {
		t.Errorf("Cancel left timer linked at heap index %d", tm.index)
	}
}

func TestAfterRecyclesTimers(t *testing.T) {
	e := NewEngine(1)
	const n = 100
	fired := 0
	for i := 0; i < n; i++ {
		e.After(Time(i)*Millisecond, func() { fired++ })
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired = %d, want %d", fired, n)
	}
	if len(e.free) == 0 {
		t.Fatal("After timers were not recycled to the free list")
	}
	// A second wave must reuse structs rather than allocate new ones.
	before := len(e.free)
	e.After(Millisecond, func() { fired++ })
	if len(e.free) != before-1 {
		t.Errorf("After did not take from free list: %d -> %d", before, len(e.free))
	}
	e.Run()
	if len(e.free) != before {
		t.Errorf("fired After timer not returned to free list: %d, want %d", len(e.free), before)
	}
}

// TestAfterArgInterleavesWithAfter pins what keeps traces byte-identical
// when a closure event becomes a payload event: both kinds share one
// sequence, so events due at the same instant fire in scheduling order.
func TestAfterArgInterleavesWithAfter(t *testing.T) {
	e := NewEngine(1)
	var order []int
	vals := []int{0, 1, 2, 3, 4, 5}
	record := func(arg any) { order = append(order, *arg.(*int)) }
	for i := range vals {
		if i%2 == 0 {
			e.AfterArg(Second, record, &vals[i])
		} else {
			i := i
			e.After(Second, func() { order = append(order, i) })
		}
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("fired in order %v, want scheduling order", order)
		}
	}
	if len(order) != len(vals) || e.Processed != uint64(len(vals)) {
		t.Fatalf("fired %d events (Processed %d), want %d", len(order), e.Processed, len(vals))
	}
}

func TestAfterArgRecyclesTimers(t *testing.T) {
	e := NewEngine(1)
	payload := new(int)
	var got any
	fn := func(arg any) { got = arg }
	for i := 0; i < 8; i++ {
		e.AfterArg(Time(i)*Millisecond, fn, payload)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterArg(Millisecond, fn, payload)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("AfterArg at steady state: %v allocs/op, want 0", allocs)
	}
	if got != any(payload) {
		t.Errorf("handler got %v, want the scheduled argument", got)
	}
	for _, tm := range e.free {
		if tm.argFn != nil || tm.arg != nil {
			t.Fatal("a recycled timer still pins its handler or payload")
		}
	}
}

func TestRescheduleReusesPendingTimer(t *testing.T) {
	e := NewEngine(1)
	hits := []Time{}
	t1 := e.Schedule(5*Second, func() { hits = append(hits, e.Now()) })
	t2 := e.Reschedule(t1, 2*Second, func() { hits = append(hits, e.Now()) })
	if t2 != t1 {
		t.Error("Reschedule of a pending timer allocated a new struct")
	}
	e.Run()
	if len(hits) != 1 || hits[0] != 2*Second {
		t.Fatalf("hits = %v, want [2s]", hits)
	}
}

func TestRescheduleAfterFireAndAfterCancel(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.Schedule(Second, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Re-arm a fired timer: struct reused, fires again.
	tm2 := e.Reschedule(tm, Second, func() { fired++ })
	if tm2 != tm {
		t.Error("Reschedule of a fired timer allocated a new struct")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after re-arm, want 2", fired)
	}
	// Cancel-then-reschedule: the canceled struct is revived.
	tm2.Cancel()
	tm3 := e.Reschedule(tm2, Second, func() { fired++ })
	if tm3 != tm2 {
		t.Error("Reschedule of a canceled timer allocated a new struct")
	}
	if tm3.Canceled() {
		t.Error("rescheduled timer still reports Canceled")
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d after cancel+reschedule, want 3", fired)
	}
}

func TestRescheduleNilTimer(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Reschedule(nil, Second, func() { fired = true })
	if tm == nil {
		t.Fatal("Reschedule(nil) returned nil")
	}
	e.Run()
	if !fired {
		t.Error("Reschedule(nil) timer did not fire")
	}
}

func TestEngineTimerStress(t *testing.T) {
	// Many overlapping, partially canceled timers: the heap must stay
	// consistent and fire the survivors exactly once.
	e := NewEngine(3)
	const n = 20000
	fired := make([]int, n)
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = e.Schedule(Time(e.Rand().Intn(1000))*Millisecond, func() { fired[i]++ })
	}
	for i := 0; i < n; i += 3 {
		timers[i].Cancel()
	}
	e.Run()
	for i := 0; i < n; i++ {
		want := 1
		if i%3 == 0 {
			want = 0
		}
		if fired[i] != want {
			t.Fatalf("timer %d fired %d times, want %d", i, fired[i], want)
		}
	}
}
