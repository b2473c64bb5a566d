package engine

import (
	"context"
	"sync/atomic"
)

// Cooperative cancellation for both execution tiers. ExecOptions.Ctx carries a
// per-request context (a deadline, or an HTTP client's disconnect) into
// execution; the entry points derive one interrupt token from it and thread it
// to the operators that loop without returning control — the leaf scans and
// the hash-join build drains. Each such checkpoint polls the token once per
// batch (a flag test plus a non-blocking channel receive, amortized over up
// to BatchSize rows) and reports EOF when it fires, so the pipeline above
// winds down through its normal end-of-stream path. The drain loops then
// surface ctx.Err() — a canceled query always returns an error, never a
// silently truncated result.

// cancelStops counts pipelines stopped early at an engine cancellation
// checkpoint, process-wide.
var cancelStops atomic.Int64

// CancelStops returns the number of executions stopped early by context
// cancellation since process start. It is the observability hook the serving
// tier's tests use to prove that a disconnected client's query actually
// stopped scanning rather than running to completion.
func CancelStops() int64 { return cancelStops.Load() }

// interrupt is the per-execution cancellation token shared by every operator
// of one pipeline, all of which run on the goroutine pulling it. A nil
// *interrupt (context without cancellation) is valid and never fires.
type interrupt struct {
	done  <-chan struct{}
	err   func() error // the context's Err
	fired bool         // memoized so later checkpoints skip the select
}

// newInterrupt derives a token from ctx; nil when ctx carries no cancellation.
func newInterrupt(ctx context.Context) *interrupt {
	if ctx == nil {
		return nil
	}
	if d := ctx.Done(); d != nil {
		return &interrupt{done: d, err: ctx.Err}
	}
	return nil
}

// stop reports whether the execution has been canceled. The first checkpoint
// to observe the cancellation counts it in CancelStops (once per execution).
func (it *interrupt) stop() bool {
	if it == nil {
		return false
	}
	if it.fired {
		return true
	}
	select {
	case <-it.done:
		it.fired = true
		cancelStops.Add(1)
		return true
	default:
		return false
	}
}

// interrupts are the tokens one operator tree polls: one per compiled
// execution, and every member's under a union of streams, which stops at the
// first member to fire so that a canceled union counts one stop.
type interrupts []*interrupt

// fired reports whether any of the tokens has observed its cancellation.
func (its interrupts) fired() bool {
	for _, it := range its {
		if it != nil && it.fired {
			return true
		}
	}
	return false
}

// err is the first canceled context's error, nil when none is: a drain that
// reached EOF under a canceled context surfaces it rather than a result the
// cancellation may have truncated.
func (its interrupts) err() error {
	for _, it := range its {
		if it != nil && it.err() != nil {
			return it.err()
		}
	}
	return nil
}
