// Package store (fixture): the live Store's own routed reads.
package store

type Store struct{}

func (s *Store) routeShards() []int { return nil } // want `one read path: .*\(routeShards\)`
