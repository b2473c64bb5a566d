package facade

var matStore = 0 // want `one reasoning rule: .*\(matStore\)`
