// Package engine (fixture): execution code reaching the live store instead
// of the pinned Reader, and sends performed under a lock.
package engine

import (
	"sync"

	"lintfixtures/store"
)

// liveScanOp pins the mutable store: a mid-execution publish can tear its
// reads across epochs.
type liveScanOp struct {
	st *store.Store // want `execution code must hold the pinned store\.Reader snapshot`
}

func countLive(st *store.Store) int { // want `execution code must hold the pinned store\.Reader snapshot`
	return st.Len()
}

func sneakyAssert(r store.Reader) int {
	if live, ok := r.(*store.Store); ok { // want `execution code must hold the pinned store\.Reader snapshot`
		return live.Len()
	}
	return r.Len()
}

type shard struct {
	mu  sync.Mutex
	out chan int
}

// publish sends while the shard lock is held: readers convoy behind a
// blocked consumer.
func (s *shard) publish(v int) {
	s.mu.Lock()
	s.out <- v // want `channel send while holding s\.mu`
	s.mu.Unlock()
}

// publishDefer holds the lock to function end via defer; the send is still
// under it.
func (s *shard) publishDefer(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out <- v // want `channel send while holding s\.mu`
}

// Count reads through whatever Reader it is handed.
func Count(rd store.Reader) int { return rd.Len() }
