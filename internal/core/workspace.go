package core

import (
	"sync"

	"ced/internal/editdist"
)

// This file implements the production kernel behind Compute,
// ComputeWindowed, Heuristic and DistanceBounded: Algorithm 1 restricted to
// a provably sufficient band of edit lengths, running on reusable scratch
// memory. An exact evaluation crosses the full |x|·|y| grid once, in the
// §4.1 heuristic run backward (Workspace.heuristic): that one pass yields
// dE, the dC,h bound that sets the band, and the suffix edit distances the
// band sweep closes its cells with, and the sweep then visits only the
// cells a winning path can cross (band.go). Under a cutoff, once the
// ladder's edit rung knows dE, the pass itself covers only the cells that
// band can reach (ladder.go).
//
// The pruning argument is the paper's own Lemma 1. A path with exactly k
// operations, ni of them insertions, costs at least the closed formula of
// its insertions-first ordering; with nd = |x|−|y|+ni and ns = k−ni−nd, and
// a = |x|+ni the longest intermediate string,
//
//	cost(k, ni) = 2H(a) − H(|x|) − H(|y|) + ns/a.
//
// Trading two substitutions for an insertion and a deletion lowers it
// (ns/a − ns/(a+1) > 0), so over all decompositions of k the minimum sits
// at the most insertions feasibility allows:
//
//	ni* = ⌊(k+|y|−|x|)/2⌋,  ns* = (k+|y|−|x|) mod 2.
//
// For ns* = 0 this is the harmonic indel cost 2H(L) − H(|x|) − H(|y|) of
// Pepin's harmonic edit distance (arXiv:2011.04072). pathLowerBound
// evaluates it. It is monotone in k and never below 2k/(|x|+|y|+k), the
// bound every operation costing at least 1/a gives. The same trade puts
// the maximum over the decompositions of k at the fewest insertions,
// max(0, |y|−|x|), which pathUpperBound evaluates. At k = dE that is at
// least dC,h, the cost of one real dE-length path's own decomposition, so
// once dE is known, dC lies between the two (EditBracket). dC,h — the §4.1
// heuristic, an upper bound of dC that Compute evaluates anyway as the
// k = dE candidate — is fixed, so every k beyond
//
//	kmax = max k with pathLowerBound(|x|, |y|, k) ≤ dC,h
//
// is provably not the argmin, and the O(|x|·|y|·(|x|+|y|)) sweep of
// Algorithm 1 shrinks to the cells and edit lengths band.go keeps. Related
// normalised-metric systems use the same bounded-evaluation idea to make
// metric search practical (Fisman et al., arXiv:2201.06115; Pepin,
// arXiv:2011.04072).

// bandSlack widens the band by a little more than the worst-case float
// rounding of a candidate cost (a sum of at most |x|+|y| harmonic terms),
// so banding can never exclude an edit length whose *computed* cost would
// have won the seed algorithm's sweep: banded results stay bit-identical
// to the unpruned reference.
const bandSlack = 1e-9

// bailSlack guards the early-bail comparison of ComputeBounded the same
// way: the kernel only reports "dC > cutoff" when the Lemma 1 lower bound
// clears the cutoff by more than any rounding in the bound itself.
const bailSlack = 1e-12

// Workspace holds the scratch memory for the contextual-distance dynamic
// programs: the packed-key row of the §4.1 heuristic, the suffix edit
// distances it records for the exact path, and the band sweep's two
// rolling (j, k) planes and two prefix rows, plus a growing harmonic-number
// prefix table. Buffers grow to the largest problem seen and are reused
// verbatim afterwards, so steady-state distance evaluations allocate
// nothing.
//
// A Workspace is not safe for concurrent use: callers either keep one per
// goroutine (internal/serve gives each striped batch worker its own) or go
// through the package-level Compute/Distance/DistanceBounded functions,
// which recycle workspaces via a sync.Pool.
//
// The zero value is ready to use; NewWorkspace is a readable constructor.
type Workspace struct {
	keys      []int64          // heuristic row: packed (edit length, insertions) keys
	suf       []int32          // suffix edit distances the heuristic records for the band sweep
	prev, cur []int32          // rolling (j, k) planes of the band sweep (band.go)
	pre       []int32          // band sweep's two rows of prefix edit distances
	h         []float64        // harmonic prefix: h[i] = H(i), grows monotonically
	ed        editdist.Scratch // bounded-Myers scratch for the ladder's edit stage
}

// NewWorkspace returns an empty workspace. Buffers are allocated lazily on
// first use and sized by the largest strings seen.
func NewWorkspace() *Workspace {
	return &Workspace{}
}

// workspaces recycles scratch memory across the package-level entry points;
// steady-state Compute/Heuristic/DistanceBounded calls are allocation-free.
var workspaces = sync.Pool{New: func() any { return NewWorkspace() }}

// harmonic extends the prefix table to cover [0, n] and returns it. The
// table accumulates h[i] = h[i-1] + 1/i exactly like harmonicPrefix, so the
// values are bit-identical to the reference algorithm's no matter in how
// many increments the table grew.
func (w *Workspace) harmonic(n int) []float64 {
	if len(w.h) == 0 {
		if cap(w.h) == 0 {
			w.h = make([]float64, 1, n+1)
		} else {
			w.h = w.h[:1]
		}
		w.h[0] = 0
	}
	for i := len(w.h); i <= n; i++ {
		w.h = append(w.h, w.h[i-1]+1/float64(i))
	}
	return w.h
}

// grow returns a length-n slice backed by *buf, reallocating only when
// the capacity is insufficient. Contents are unspecified: the kernels below
// never read a cell they have not written.
func grow[T int32 | int64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// pathLowerBound returns the Lemma 1 minimum: the contextual cost of the
// cheapest path from a length-m string to a length-n string with exactly
// k ≥ |m−n| operations (see the file comment). h is a harmonic prefix
// covering [0, m+n]. The terms are summed in the order finishBand sums a
// candidate's, so at ni = ni* the two agree to the bit.
func pathLowerBound(h []float64, m, n, k int) float64 {
	s := k + n - m // 2·ni* + ns*
	a := m + s/2   // the longest intermediate string, m + ni*
	d := h[a] - h[m] + h[a] - h[n]
	if s%2 != 0 {
		d += 1 / float64(a)
	}
	return d
}

// pathUpperBound returns the contextual cost of the k-operation
// decomposition with the fewest insertions, max(0, n−m), from a length-m
// string to a length-n string, k ≥ |m−n| (see the file comment). h is a
// harmonic prefix covering [0, max(m, n)]. The terms are summed in the
// order heuristic sums its result, so when the heuristic's path has the
// fewest insertions the two agree to the bit.
func pathUpperBound(h []float64, m, n, k int) float64 {
	a := max(m, n) // m + the fewest insertions
	d := h[a] - h[m] + h[a] - h[n]
	if ns := k - (a - m) - (a - n); ns > 0 {
		d += float64(ns) / float64(a)
	}
	return d
}

// kBand returns the largest edit length not ruled out against bound: the
// result kmax satisfies pathLowerBound(h, m, n, k) > bound + bandSlack for
// every k in (kmax, m+n], so restricting Algorithm 1 to k ≤ kmax cannot
// change its minimum. The result is clamped to [de, m+n]; de ≥ |m−n| (dE
// of the pair, or the length gap) keeps the band non-empty. A NaN bound
// prunes nothing. h is a harmonic prefix covering [0, m+n].
func kBand(h []float64, m, n int, bound float64, de int) int {
	total := m + n
	b := bound + bandSlack
	if !(b < pathLowerBound(h, m, n, total)) {
		return total
	}
	// The bound is monotone in k: binary search for the last k it admits,
	// keeping pathLowerBound(lo) ≤ b (or lo below de) and
	// pathLowerBound(hi) > b.
	lo, hi := de-1, total
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if pathLowerBound(h, m, n, mid) <= b {
			lo = mid
		} else {
			hi = mid
		}
	}
	return max(lo, de)
}

// Compute is the workspace form of the package-level Compute: the exact
// Algorithm 1, pruned to the k-band derived from the §4.1 heuristic and
// running entirely on the workspace's reusable buffers. The result —
// distance and path decomposition — is bit-identical to the unpruned
// reference algorithm. It is ComputeWindowed with a window that covers
// every edit length.
func (w *Workspace) Compute(x, y []rune) Result {
	return w.ComputeWindowed(x, y, len(x)+len(y))
}

// ComputeWindowed is the workspace form of the package-level
// ComputeWindowed: the banded Algorithm 1 with the band's upper end capped
// at dE + window as well. The heuristic supplies dE and the band kBand
// proves sufficient, so the sweep runs over [dE, min(kBand, dE+window)].
// Exact is set when the window covers the whole band; the result is then
// Compute's. The result is bit-identical to the unpruned reference
// algorithm restricted to edit lengths at most dE + window: the edit
// lengths the band drops cannot win either sweep.
func (w *Workspace) ComputeWindowed(x, y []rune, window int) Result {
	m, n := len(x), len(y)
	if m == 0 && n == 0 {
		return Result{Exact: true}
	}
	window = max(window, 0)
	suf := grow(&w.suf, (m+1)*(n+1))
	hres := w.heuristic(x, y, suf, m+n)
	kmax := kBand(w.harmonic(m+n), m, n, hres.Distance, hres.K)
	exact := kmax-hres.K <= window
	if !exact {
		kmax = hres.K + window
	}
	if kmax == hres.K {
		// The sweep would cover only the edit length the heuristic already
		// evaluated: the heuristic value is the result.
		hres.Exact = exact
		return hres
	}
	res := w.computeBand(x, y, suf, kmax, hres.K)
	res.Exact = exact
	return res
}

// Distance is the workspace form of the package-level Distance.
func (w *Workspace) Distance(x, y []rune) float64 {
	return w.Compute(x, y).Distance
}

// ComputeBounded evaluates the exact contextual distance under a cutoff.
// The boolean reports whether the returned Result is exact:
//
//   - (res, true): res is the exact Compute result. Guaranteed whenever
//     dC(x, y) ≤ cutoff; the kernel also reports exact results above the
//     cutoff when it obtained them for free.
//   - (res, false): the kernel proved dC(x, y) > cutoff and abandoned the
//     evaluation. res.Distance is then an upper bound of dC(x, y) that is
//     itself > cutoff (never below the cutoff), and res.Exact is false.
//
// The evaluation runs the staged bound ladder of ladder.go: an O(1)
// length-difference bound, the bounded bit-parallel edit-distance bound,
// the quadratic dC,h band collapse and finally the banded exact sweep —
// each rung can reject the candidate against the cutoff before the next
// spends more work, and the cutoff tightens the final band beyond what the
// heuristic upper bound alone allows. Metric-space searchers pass their
// current pruning radius as the cutoff to discard far-away candidates at a
// fraction of an exact evaluation; ComputeBoundedStaged additionally
// reports which rung decided.
func (w *Workspace) ComputeBounded(x, y []rune, cutoff float64) (Result, bool) {
	res, exact, _ := w.ComputeBoundedStaged(x, y, cutoff)
	return res, exact
}

// HeuristicCompute is the workspace form of the package-level
// HeuristicCompute: the §4.1 dC,h dynamic program on one reusable row.
func (w *Workspace) HeuristicCompute(x, y []rune) Result {
	return w.heuristic(x, y, nil, len(x)+len(y))
}

// keyOp is one operation in the heuristic's packed keys (see heuristic).
const keyOp = 1 << 32

// heuristic runs the §4.1 dynamic program backward, from (|x|, |y|) to
// (0, 0). Cell (i, j) stands for the suffixes x[i:] and y[j:] and holds one
// packed key,
//
//	key = k·2³² + (|y| − ni),
//
// with k = dE(x[i:], y[j:]) the fewest operations between the suffixes and
// ni the most insertions over the paths with k operations. Since
// 0 ≤ |y| − ni < 2³², "fewest operations, then most insertions" is the
// integer order of the keys, so each cell is one min of three: a match
// keeps the diagonal's key, a substitution or a deletion adds 2³², an
// insertion adds 2³² − 1. A path reversed keeps its operation counts, so
// the (k, ni) reached at (0, 0) are the forward program's and the Result
// is the same to the bit.
//
// The program visits only the cells a path with at most band operations
// can cross, |i−j| + |(|x|−|y|) − (i−j)| ≤ band; the cells outside read
// as +∞, and band ≥ |x|+|y| is the whole grid. At band ≥ dE(x, y) every
// shortest path stays inside, so the Result does not depend on the band.
//
// When suf is non-nil it must hold (|x|+1)·(|y|+1) cells, and the program
// records each visited cell's k there, row-major with stride |y|+1: the
// suffix edit distances that close the band sweep's cells (band.go). A
// cell whose prefix and suffix edit distances sum to at most band keeps
// every shortest suffix path inside the band, so it records its exact
// suffix distance; every other visited cell records one at least as
// large. The band sweep at kmax ≤ band reads a row at most one cell past
// the band on either side, where the program writes tubeGap, so it finds
// the tube the whole grid would give. With suf nil every row's distances
// land on one scratch row, so the program keeps O(|y|) space.
func (w *Workspace) heuristic(x, y []rune, suf []int32, band int) Result {
	m, n := len(x), len(y)
	stride := n + 1
	if suf == nil {
		// The band sweep's prefix rows are free until it runs.
		suf, stride = grow(&w.pre, n+1), 0
	}
	row := grow(&w.keys, n+1)
	heuristicRows(x, y, row, suf, stride, band)
	k, ni := int(row[0]>>32), n-int(row[0]&(keyOp-1))
	nd := m - n + ni
	ns := k - ni - nd
	h := w.harmonic(m + ni)
	d := h[m+ni] - h[m] + h[n+nd] - h[n]
	if ns > 0 {
		d += float64(ns) / float64(m+ni)
	}
	return Result{
		Distance:      d,
		K:             k,
		Insertions:    ni,
		Substitutions: ns,
		Deletions:     nd,
	}
}

// heuristicRows is heuristic's program over the rows of the band, from
// row |x| up to row 0, leaving row 0's keys in row and recording into suf
// with the given stride. It is a function of its own so that the loop
// over cells keeps its values in registers: sharing one function with
// heuristic's own values made that loop spill, and a 60-symbol pass
// about 15% slower.
func heuristicRows(x, y []rune, row []int64, suf []int32, stride, band int) {
	const far = 1 << 62 // a cell outside the band: +∞ that adding keyOp cannot overflow
	m, n := len(x), len(y)
	// Row i keeps the columns from i − under to i + over.
	under, over := (band+m-n)/2, (band-m+n)/2
	// Row i = |x|: y[j:] from the empty suffix, |y|−j insertions.
	lo := max(m-under, 0)
	rec := suf[m*stride : m*stride+n+1]
	if lo > 0 {
		rec[lo-1] = tubeGap
	}
	for j := lo; j <= n; j++ {
		row[j] = int64(n-j)*keyOp + int64(j)
		rec[j] = int32(n - j)
	}
	for i := m - 1; i >= 0; i-- {
		rec = suf[i*stride : i*stride+n+1]
		lo, hi := max(i-under, 0), min(i+over, n)
		if lo > 0 {
			rec[lo-1] = tubeGap
		}
		if i >= under {
			row[lo] = far // (i+1, lo) is past the band
		}
		var diag, right int64
		top := hi // the last column the recurrence below fills
		if hi == n {
			// Column j = |y|: |x|−i deletions, no insertions.
			diag, right = row[n], int64(m-i)*keyOp+int64(n)
			row[n], rec[n] = right, int32(m-i)
			top--
		} else {
			diag, right = row[hi+1], far
			rec[hi+1] = tubeGap
		}
		xi := x[i]
		ys, keys, cs := y[lo:top+1], row[lo:top+1], rec[lo:top+1]
		for j := len(ys) - 1; j >= 0; j-- {
			below := keys[j]
			best := diag + keyOp // substitution
			if xi == ys[j] {
				best = diag // cost-0 match
			}
			best = min(best, below+keyOp, right+keyOp-1) // deletion, insertion
			keys[j], cs[j] = best, int32(best>>32)
			diag, right = below, best
		}
	}
}
