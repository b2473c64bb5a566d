// Package exp (fixture): Figure 8 measures a saturated triple table.
package exp

import "lintfixtures/retired/stub/reason"

var figure8 = reason.Saturate()
