package editdist

// Costs assigns a non-negative weight to each elementary edit operation. It
// generalises the unit-cost model: Sub(a, a) must be 0 for the result to be a
// distance, and for metric properties the weights must themselves satisfy
// symmetry and the triangle inequality.
type Costs interface {
	// Sub is the cost of substituting symbol a (from the source) by symbol
	// b (from the target). Sub(a, a) must be 0.
	Sub(a, b rune) float64
	// Del is the cost of deleting symbol a from the source.
	Del(a rune) float64
	// Ins is the cost of inserting symbol b into the target.
	Ins(b rune) float64
}

// Unit is the standard 0/1 cost model used throughout the paper: every
// insertion, deletion and substitution of distinct symbols costs 1.
type Unit struct{}

// Sub returns 0 if a == b and 1 otherwise.
func (Unit) Sub(a, b rune) float64 {
	if a == b {
		return 0
	}
	return 1
}

// Del returns 1.
func (Unit) Del(rune) float64 { return 1 }

// Ins returns 1.
func (Unit) Ins(rune) float64 { return 1 }

// Weights is a simple symbol-independent cost model: substitutions of
// distinct symbols cost SubCost, deletions DelCost, insertions InsCost.
type Weights struct {
	SubCost, DelCost, InsCost float64
}

// Sub returns 0 if a == b, else w.SubCost.
func (w Weights) Sub(a, b rune) float64 {
	if a == b {
		return 0
	}
	return w.SubCost
}

// Del returns w.DelCost.
func (w Weights) Del(rune) float64 { return w.DelCost }

// Ins returns w.InsCost.
func (w Weights) Ins(rune) float64 { return w.InsCost }
