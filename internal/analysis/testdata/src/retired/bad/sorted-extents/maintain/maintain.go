// Package maintain (fixture): extents that carry a RowIndex beside their
// rows.
package maintain

import "lintfixtures/retired/stub/engine"

type extentSet struct {
	epoch   uint64
	extents map[int]*engine.RowIndex // want `sorted extents: .*extentSet\.extents\)`
}

type Maintainer struct {
	cur  *extentSet
	last []*engine.RowIndex // want `sorted extents: .*Maintainer\.last\)`
}

func (m *Maintainer) rederivable() bool { return false }

func (m *Maintainer) apply() bool { return m.rederivable() }
