// Package engine (fixture): the batch ownership protocol followed
// correctly — batchlease must stay silent.
package engine

type batch struct{ n int }

func newBatch(w int) *batch { _ = w; return &batch{} }

func (b *batch) release() {}

type operator interface {
	nextBatch() (*batch, bool)
	close()
}

// scanOp owns out and releases it in close.
type scanOp struct {
	out *batch
}

func newScan() *scanOp { return &scanOp{out: newBatch(4)} }

func (s *scanOp) nextBatch() (*batch, bool) { return s.out, true }

func (s *scanOp) close() { s.out.release() }

// projOp owns out, borrows cur from its child between pulls, and propagates
// close to the child. The borrowed cur is the child's to release; projOp's
// close correctly leaves it alone.
type projOp struct {
	in  operator
	cur *batch
	out *batch
}

func newProj(in operator) *projOp { return &projOp{in: in, out: newBatch(2)} }

func (p *projOp) nextBatch() (*batch, bool) {
	b, ok := p.in.nextBatch()
	p.cur = b
	return p.out, ok
}

func (p *projOp) close() {
	p.out.release()
	p.in.close()
}

// handOff leases a batch and transfers ownership over the channel.
func handOff(out chan<- *batch) {
	b := newBatch(1)
	b.n++
	out <- b
}

// refill leases, uses, and releases its batch on the same path.
func refill() int {
	b := newBatch(1)
	n := b.n
	b.release()
	return n
}
