package maintain

var rederived = (&Maintainer{}).rederivable()
