// Package exec (fixture): a field named DOP that is never reached as .DOP,
// and retired names in comments only: ExecDOP, unionEst, rowSet and
// reason.Saturate were deleted.
package exec

type options struct{ DOP int }

var defaults = options{DOP: 1}
