// Package maintain (fixture): apply's one DRed check, sorted extents, and a
// transient set of rows.
package maintain

import "lintfixtures/retired/stub/engine"

type extentSet struct {
	extents map[int]*engine.Relation
}

type Maintainer struct{ cur *extentSet }

func (m *Maintainer) rederivable() bool { return false }

func (m *Maintainer) apply() bool {
	seen := &engine.RowIndex{}
	return seen != nil && m.rederivable()
}
