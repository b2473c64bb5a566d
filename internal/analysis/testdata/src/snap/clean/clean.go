// Package engine (fixture): snapshot-disciplined execution — reads go
// through the pinned Reader and sends happen outside critical sections.
package engine

import (
	"sync"

	"lintfixtures/store"
)

// snapScanOp holds the pinned Reader, never the live store.
type snapScanOp struct {
	rd store.Reader
}

func countPinned(rd store.Reader) int {
	return rd.Len()
}

type shard struct {
	mu  sync.Mutex
	buf []int
	out chan int
}

// publish copies under the lock and sends after releasing it.
func (s *shard) publish(v int) {
	s.mu.Lock()
	s.buf = append(s.buf, v)
	s.mu.Unlock()
	s.out <- v
}

// drain snapshots the buffer under the lock, then publishes lock-free.
func (s *shard) drain() {
	s.mu.Lock()
	pending := s.buf
	s.buf = nil
	s.mu.Unlock()
	for _, v := range pending {
		s.out <- v
	}
}

// Count reads through whatever Reader it is handed.
func Count(rd store.Reader) int { return countPinned(rd) }
