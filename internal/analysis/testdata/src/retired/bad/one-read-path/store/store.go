// Package store (fixture): the live Store's own routed reads.
package store

type Store struct{}

func (s *Store) routeShards() []int { return nil } // want `one read path: .*\(routeShards\)`

func resortedRuns(src []int32) []int32 { return src }

func derived(src []int32) []int32 { return resortedRuns(src) }
