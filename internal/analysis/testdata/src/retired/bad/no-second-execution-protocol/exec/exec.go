// Package exec (fixture): the execution-protocol switches, the
// parallelism setting reached as .DOP and its flag and operator names.
package exec

type options struct{ DOP int }

func ExecDOP() {} // want `no second execution protocol: .*\(ExecDOP\)`

func run(o options) (int, string) {
	return o.DOP, "exec-dop" // want `no second execution protocol: .*\(o\.DOP\)` `no second execution protocol: .*\("exec-dop"\)`
}

func explain() string {
	return "Gather" // want `no second execution protocol: .*\("Gather"\)`
}
