package cq

var labels = Query{}.Canonicalize() // want `one canonical labeling: .*\(Query\{\}\.Canonicalize\)`
