// Package offline (fixture): a deployment type outside the facade.
package offline

type OfflineViews struct{} // want `one view deployment: .*\(OfflineViews\)`
