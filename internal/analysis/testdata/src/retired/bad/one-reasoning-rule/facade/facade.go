// Package facade (fixture): a saturated copy of the store, its pin and its
// plan-cache branch.
package facade

type pin struct{ sat int }

type db struct {
	pin    pin
	pinned bool
}

func saturatedFor(d *db) int { // want `one reasoning rule: .*\(saturatedFor\)`
	if d.pinned { // want `one reasoning rule: .*\(d\.pinned\)`
		return d.pin.sat // want `one reasoning rule: .*\(d\.pin\.sat\)`
	}
	return 0
}

const satKey = "db:sat" // want `one reasoning rule: .*\("db:sat"\)`
