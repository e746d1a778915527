// Package timerown exercises the timerown analyzer: Runner.Reschedule
// takes ownership of the handle passed in, so the only valid handle
// afterwards is the returned one.
package timerown

import "taq/internal/sim"

type keeper struct {
	run   sim.Runner
	saved *sim.Timer
	byID  map[int]*sim.Timer
}

// useAfterTransfer reads a handle whose ownership moved to Reschedule.
func useAfterTransfer(r sim.Runner, t *sim.Timer) sim.Time {
	fresh := r.Reschedule(t, sim.Second, func() {})
	_ = fresh
	return t.When() // want `use of t after its ownership was transferred to Reschedule`
}

// cancelAfterTransfer cancels a handle that may have been recycled.
func cancelAfterTransfer(r sim.Runner, t *sim.Timer) {
	fresh := r.Reschedule(t, sim.Second, func() {})
	_ = fresh
	t.Cancel() // want `Cancel of t after Reschedule took ownership`
}

// doubleReschedule hands the same stale handle back a second time.
func doubleReschedule(r sim.Runner, t *sim.Timer) {
	a := r.Reschedule(t, sim.Second, func() {})
	b := r.Reschedule(t, 2*sim.Second, func() {}) // want `second Reschedule of t on this path`
	_, _ = a, b
}

// discardedResult drops the only valid replacement handle.
func (k *keeper) discardedResult(t *sim.Timer) {
	k.run.Reschedule(t, sim.Second, func() {}) // want `discarded Reschedule result`
}

// escapeStore leaks a stale handle into a field and a map.
func (k *keeper) escapeStore(t *sim.Timer) {
	fresh := k.run.Reschedule(t, sim.Second, func() {})
	_ = fresh
	k.saved = t   // want `stores t into a field, map, or slice`
	k.byID[0] = t // want `stores t into a field, map, or slice`
}

// branchMaybe transfers on only one path, so later use is a
// may-finding.
func branchMaybe(r sim.Runner, t *sim.Timer, cond bool) {
	if cond {
		fresh := r.Reschedule(t, sim.Second, func() {})
		_ = fresh
	}
	t.Cancel() // want `Cancel of t, which may have been handed to Reschedule on another path`
}

// loopCarried transfers in one iteration and reuses the stale handle
// in the next.
func loopCarried(r sim.Runner, t *sim.Timer) {
	for i := 0; i < 3; i++ {
		fresh := r.Reschedule(t, sim.Second, func() {}) // want `Reschedule of t, which may already have been handed to Reschedule on another path`
		_ = fresh
	}
}

// --- non-findings ---

// canonical is the sanctioned idiom: the returned handle replaces the
// one passed in, on a field just like the hot paths do.
func (k *keeper) canonical() {
	k.saved = k.run.Reschedule(k.saved, sim.Second, func() {})
	k.saved = k.run.Reschedule(k.saved, 2*sim.Second, func() {})
	k.saved.Cancel()
}

// scheduleHandleLateCancel: Schedule-returned handles are never
// recycled, so a late Cancel is always safe.
func scheduleHandleLateCancel(r sim.Runner) {
	t := r.Schedule(sim.Second, func() {})
	for i := 0; i < 10; i++ {
		_ = t.When()
	}
	t.Cancel()
}

// bothBranchesReplace re-assigns on every path before the use.
func bothBranchesReplace(r sim.Runner, t *sim.Timer, cond bool) {
	if cond {
		t = r.Reschedule(t, sim.Second, func() {})
	} else {
		t = r.Schedule(2*sim.Second, func() {})
	}
	t.Cancel()
}

// reassignedAfterTransfer installs a fresh handle before the next use.
func reassignedAfterTransfer(r sim.Runner, t *sim.Timer) {
	t = r.Reschedule(t, sim.Second, func() {})
	t = r.Reschedule(t, 2*sim.Second, func() {})
	t.Cancel()
}
