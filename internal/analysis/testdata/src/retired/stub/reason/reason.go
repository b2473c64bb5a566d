// Package reason (fixture stub) declares what the retired rows look up by
// key: reason.Saturate, reason.Reformulate and reason.ReformulateAtoms.
package reason

func Saturate() int { return 0 }

func Reformulate() int { return 0 }

func ReformulateAtoms() int { return 0 }
