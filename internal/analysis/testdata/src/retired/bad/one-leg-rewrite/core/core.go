// Package core (fixture): an eager rewrite beside the deferred one.
package core

import "lintfixtures/retired/stub/algebra"

func build(p algebra.Plan) algebra.Plan { return algebra.SubstituteViews(p) }

func derive(p algebra.Plan) algebra.Plan { return algebra.SubstituteViews(p) } // want `one leg rewrite: .*want one site of algebra\.SubstituteViews, found 2`
