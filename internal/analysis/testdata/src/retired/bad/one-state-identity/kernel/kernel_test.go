package kernel_test

func NewView() {} // want `one state identity: .*\(NewView\)`
