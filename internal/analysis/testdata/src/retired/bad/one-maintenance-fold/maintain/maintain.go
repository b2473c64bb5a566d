// Package maintain (fixture): an inline synchronous DRed beside apply's,
// and a mode-specific constructor.
package maintain

type Maintainer struct{}

func (m *Maintainer) rederivable() bool { return false }

func (m *Maintainer) apply() bool { return m.rederivable() }

func (m *Maintainer) applySync() bool { return m.rederivable() } // want `one maintenance fold: .*want one site of maintain\.Maintainer\.rederivable, found 2`

func NewWithConfig() *Maintainer { return nil } // want `one maintenance fold: .*\(NewWithConfig\)`
