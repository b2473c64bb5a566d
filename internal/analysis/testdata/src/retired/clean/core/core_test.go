package core

import "lintfixtures/retired/stub/algebra"

// Tests may rewrite legs eagerly to check the deferred rewrite against it.
var eager = algebra.SubstituteViews(1)
