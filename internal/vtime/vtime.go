// Package vtime provides the virtual clock used by the secureTF simulation
// substrate.
//
// All enclave-related costs (EPC paging, enclave transitions, WAN round
// trips, crypto throughput) are charged to a virtual clock rather than
// slept on the wall clock. This keeps experiments deterministic and fast
// while preserving the performance shape reported by the paper.
package vtime

import (
	"sync/atomic"
	"time"
)

// Clock is a monotonically increasing virtual clock. The zero value is
// ready to use and starts at virtual time zero.
//
// Clock is safe for concurrent use. Charges from concurrent goroutines
// accumulate; use Span to model critical paths where concurrent work
// overlaps instead of serializing.
type Clock struct {
	nanos atomic.Int64
}

// Now returns the current virtual time as a duration since the clock's
// origin.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.nanos.Load())
}

// Advance moves the clock forward by d. Negative durations are ignored so
// that derived cost computations can never move time backwards.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.nanos.Add(int64(d))
}

// AdvanceTo moves the clock forward to at least t. It is a no-op if the
// clock is already past t. AdvanceTo is used to merge the completion times
// of parallel activities: each branch computes its own finish time and the
// joining goroutine advances to the maximum.
func (c *Clock) AdvanceTo(t time.Duration) {
	for {
		cur := c.nanos.Load()
		if int64(t) <= cur {
			return
		}
		if c.nanos.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Reset rewinds the clock to zero. Intended for test and experiment
// harnesses that reuse a platform across runs.
func (c *Clock) Reset() {
	c.nanos.Store(0)
}

// Span measures a region of virtual time. It is created by Start and
// closed by Stop, which reports the elapsed virtual duration.
type Span struct {
	clock *Clock
	start time.Duration
}

// Start opens a span at the current virtual time.
func (c *Clock) Start() Span {
	return Span{clock: c, start: c.Now()}
}

// Stop returns the virtual time elapsed since the span was started.
func (s Span) Stop() time.Duration {
	return s.clock.Now() - s.start
}

// Stopwatch combines virtual and wall time measurement, so harnesses can
// report both the simulated latency and the real cost of producing it.
type Stopwatch struct {
	clock     *Clock
	vStart    time.Duration
	wallStart time.Time
}

// NewStopwatch starts a stopwatch against the given clock.
func NewStopwatch(c *Clock) *Stopwatch {
	return &Stopwatch{clock: c, vStart: c.Now(), wallStart: time.Now()}
}

// Virtual returns the elapsed virtual time.
func (s *Stopwatch) Virtual() time.Duration { return s.clock.Now() - s.vStart }

// Wall returns the elapsed wall-clock time.
func (s *Stopwatch) Wall() time.Duration { return time.Since(s.wallStart) }
