// Package engine (fixture): pooled batches that leak — unreleased owned
// fields, closeless owners, local leases that escape, and a close that does
// not propagate to a child operator.
package engine

type batch struct{ n int }

func newBatch(w int) *batch { _ = w; return &batch{} }

func (b *batch) release() {}

type operator interface {
	nextBatch() (*batch, bool)
	close()
}

// forgetfulOp owns out but its close forgets to release it.
type forgetfulOp struct {
	out *batch
}

func newForgetful() *forgetfulOp {
	return &forgetfulOp{out: newBatch(4)} // want `forgetfulOp\.out is assigned a pooled batch but close does not release it`
}

func (s *forgetfulOp) close() {}

// closelessOp owns a batch and cannot release it at all.
type closelessOp struct {
	buf *batch
}

func (l *closelessOp) fill() {
	l.buf = newBatch(2) // want `closelessOp\.buf is assigned a pooled batch but closelessOp has no close method`
}

// leak acquires a lease that escapes without release or transfer.
func leak() int {
	b := newBatch(1) // want `batch b is leased from the pool but never released, sent, returned, or transferred`
	b.n++
	return b.n
}

// orphanParent closes its own batch but never closes its child, so the
// child's batches leak.
type orphanParent struct {
	in  operator // want `orphanParent\.close does not propagate to operator field in`
	out *batch
}

func newOrphan(in operator) *orphanParent {
	return &orphanParent{in: in, out: newBatch(1)}
}

func (o *orphanParent) close() { o.out.release() }
