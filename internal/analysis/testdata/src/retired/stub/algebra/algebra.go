// Package algebra (fixture stub) declares the leg rewrite.
package algebra

type Plan int

func SubstituteViews(p Plan) Plan { return p }
