// Package views (fixture): a saturated store built outside reason and exp.
package views

import "lintfixtures/retired/stub/reason"

var sat = reason.Saturate() // want `one reasoning rule: .*\(Saturate\)`
