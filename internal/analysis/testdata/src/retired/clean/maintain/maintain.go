// Package maintain (fixture): apply's one DRed check.
package maintain

type Maintainer struct{}

func (m *Maintainer) rederivable() bool { return false }

func (m *Maintainer) apply() bool { return m.rederivable() }
