package segment

// The oracle and its helper, for the external test of the per-rank pass
// (which imports this package, so it cannot live inside it).
var (
	RefSegments = refSegments
	NilIfEmpty  = nilIfEmpty
)
