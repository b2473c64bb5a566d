// Package engine (fixture): the batch ownership protocol followed
// correctly — batchlease must stay silent.
package engine

import "sync"

type batch struct{ n int }

func newBatch(w int) *batch { _ = w; return &batch{} }

func (b *batch) release() {}

type batchPool struct {
	mu   sync.Mutex
	free []*batch
}

func (p *batchPool) get() *batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return newBatch(0)
}

func (p *batchPool) put(b *batch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, b)
}

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

// fanOut leases a batch and transfers ownership over the channel; the
// consumer returns it to the pool.
func fanOut(p *batchPool, out chan<- *batch) {
	b := p.get()
	b.n++
	out <- b
}

func consume(p *batchPool, in <-chan *batch) int {
	total := 0
	for b := range in {
		total += b.n
		p.put(b)
	}
	return total
}

// refill leases, uses, and returns its batch on the same path.
func refill(p *batchPool) int {
	b := p.get()
	n := b.n
	p.put(b)
	return n
}
