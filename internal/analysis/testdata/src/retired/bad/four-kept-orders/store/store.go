// Package store (fixture): a build that stores SOP and OPS lists beside the
// derived read.
package store

func resortedRuns(src []int32) []int32 { return src }

func derived(src []int32) []int32 { return resortedRuns(src) }

func sortedPositions(spo, osp []int32) (sop, ops []int32) {
	return resortedRuns(spo), resortedRuns(osp) // want `four kept orders: .*want one site of store\.resortedRuns, found 3`
}
