package core

// harmonicPrefix returns the slice h of length n+1 with h[i] the i-th
// harmonic number: h[0] = 0, h[i] = 1 + 1/2 + ... + 1/i. The closed-form
// cost of a (k, ni) decomposition (Lemma 1 ordering) is expressed with
// differences of these values; one prefix array is computed per distance
// call, so the package keeps no mutable global state and is trivially safe
// for concurrent use.
func harmonicPrefix(n int) []float64 {
	h := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		h[i] = h[i-1] + 1/float64(i)
	}
	return h
}

// Harmonic returns the n-th harmonic number H(n) = 1 + 1/2 + ... + 1/n, with
// H(0) = 0. Exposed for callers that want to reason about contextual-cost
// bounds (e.g. UpperBound).
func Harmonic(n int) float64 {
	s := 0.0
	for i := 1; i <= n; i++ {
		s += 1 / float64(i)
	}
	return s
}

// UpperBound returns the cost of the always-feasible "insert everything,
// then delete everything" path from a string of length m to one of length n:
//
//	H(m+n) − H(m) + H(m+n) − H(n)
//
// dC(x, y) <= UpperBound(|x|, |y|) for every pair of strings, which shows dC
// grows at most logarithmically with the string lengths — the property that
// makes the contextual normalisation length-aware.
//
// Only three harmonic values are needed, so a single running sum captures
// them allocation-free: search layers call this on every candidate bound
// check, where a per-call prefix array would dominate the cost.
func UpperBound(m, n int) float64 {
	if n < m {
		m, n = n, m
	}
	s, hm, hn := 0.0, 0.0, 0.0
	for i := 1; i <= m+n; i++ {
		s += 1 / float64(i)
		if i == m {
			hm = s
		}
		if i == n {
			hn = s
		}
	}
	return 2*s - hm - hn
}

// upperBound is UpperBound read off a harmonic prefix covering [0, m+n].
// The prefix accumulates the same running sum, so the value is the same to
// the bit, without UpperBound's m+n divisions.
func upperBound(h []float64, m, n int) float64 {
	if n < m {
		m, n = n, m
	}
	return 2*h[m+n] - h[m] - h[n]
}

// OperationCost returns the contextual cost of a single elementary operation
// applied to a string of length l: 1/l for a substitution or a deletion,
// 1/(l+1) for an insertion (the operation's weight is 1/max(|u|,|v|) for a
// one-step rewrite u -> v). It panics if the operation is impossible
// (substituting or deleting on an empty string).
func OperationCost(kind OpKind, l int) float64 {
	switch kind {
	case OpInsert:
		return 1 / float64(l+1)
	case OpSubstitute, OpDelete:
		if l <= 0 {
			panic("core: substitution/deletion on an empty string")
		}
		return 1 / float64(l)
	default:
		panic("core: unknown operation kind")
	}
}

// OpKind identifies an elementary rewrite operation for OperationCost.
type OpKind uint8

// The three elementary rewrite operations of Definition 2 of the paper.
const (
	OpInsert OpKind = iota
	OpSubstitute
	OpDelete
)
