// Package store (fixture): SOP and OPS read from SPO and OSP by the one
// derived read; tests may re-sort runs to check it.
package store

func resortedRuns(src []int32) []int32 { return src }

func derived(src []int32) []int32 { return resortedRuns(src) }
