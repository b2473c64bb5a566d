package maintain

const BatchMax = 8 // want `one maintenance fold: .*\(BatchMax\)`
