// Package kernel (fixture): a free-standing view constructor that skips
// interning.
package kernel

type View struct{}

func NewView() *View { return &View{} } // want `one state identity: .*\(NewView\)`
