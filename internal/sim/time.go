// Package sim provides the discrete-event simulation engine used by the
// TAQ reproduction: a virtual clock, a deterministic event heap, and the
// Runner interface that protocol code (TCP, TAQ, links) is written
// against. internal/emu paces the same Engine against the wall clock, so
// the same protocol code drives both the simulator and the
// prototype/testbed experiments.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Duration so that the
// compiler catches accidental mixing of wall-clock and virtual time.
type Time int64

// Common durations, mirroring package time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration (both are nanoseconds).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time in seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromDuration converts a wall-clock duration to virtual Time.
func FromDuration(d time.Duration) Time { return Time(d) }
