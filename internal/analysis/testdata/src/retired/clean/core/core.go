// Package core (fixture): views built through the interning Ctx, and the
// one deferred leg rewrite.
package core

import "lintfixtures/retired/stub/algebra"

type Ctx struct{}

type View struct{}

func (c *Ctx) NewView() *View { return &View{} }

func build(c *Ctx, p algebra.Plan) (*View, algebra.Plan) {
	return c.NewView(), algebra.SubstituteViews(p)
}
