package core

import (
	"sync"

	"ced/internal/editdist"
)

// This file implements the production kernel behind Compute, Heuristic and
// DistanceBounded: Algorithm 1 restricted to a provably sufficient band of
// edit lengths, running on reusable scratch memory.
//
// The pruning argument: every elementary operation on an internal path with
// exactly k operations costs at least 1/L where L is the longest
// intermediate string. With ni insertions the longest intermediate string
// has length |x|+ni, and feasibility (nd = |x|−|y|+ni ≥ 0, ns ≥ 0) caps
// ni at (k+|y|−|x|)/2, so L ≤ (|x|+|y|+k)/2 and
//
//	cost(any k-operation path) ≥ 2k / (|x|+|y|+k).
//
// (This dominates the simpler k/(|x|+k) bound obtained from ni ≤ k.) The
// bound grows monotonically in k while dC,h — the §4.1 heuristic, an upper
// bound of dC that Compute must evaluate anyway via the k = dE candidate —
// is fixed, so every k beyond
//
//	kmax = max k with 2k/(|x|+|y|+k) ≤ dC,h
//
// is provably not the argmin and the O(|x|·|y|·(|x|+|y|)) sweep of
// Algorithm 1 shrinks to O(|x|·|y|·kmax). Related normalised-metric systems
// use the same bounded-evaluation idea to make metric search practical
// (Fisman et al., arXiv:2201.06115; Pepin, arXiv:2011.04072).

// bandSlack widens the band by a little more than the worst-case float
// rounding of a candidate cost (a sum of at most |x|+|y| harmonic terms),
// so banding can never exclude an edit length whose *computed* cost would
// have won the seed algorithm's sweep: banded results stay bit-identical
// to the unpruned reference.
const bandSlack = 1e-9

// bailSlack guards the early-bail comparison of ComputeBounded the same
// way: the kernel only reports "dC > cutoff" when the analytic lower bound
// clears the cutoff by more than any rounding in the bound itself.
const bailSlack = 1e-12

// Workspace holds the scratch memory for the contextual-distance dynamic
// programs: the two rolling (j, k) planes of Algorithm 1, the two rows of
// the §4.1 heuristic and a growing harmonic-number prefix table. Buffers
// grow to the largest problem seen and are reused verbatim afterwards, so
// steady-state distance evaluations allocate nothing.
//
// A Workspace is not safe for concurrent use: callers either keep one per
// goroutine (internal/serve gives each striped batch worker its own) or go
// through the package-level Compute/Distance/DistanceBounded functions,
// which recycle workspaces via a sync.Pool.
//
// The zero value is ready to use; NewWorkspace is a readable constructor.
type Workspace struct {
	prev, cur []int32          // rolling (j, k) planes of the band sweep (band.go)
	kr, ir    []int32          // heuristic rows: min edit length, max insertions
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

// grow32 returns a length-n slice backed by *buf, reallocating only when
// the capacity is insufficient. Contents are unspecified: the kernels below
// never read a cell they have not written.
func grow32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// pathLowerBound returns the analytic lower bound on the contextual cost of
// any internal path from a length-m string to a length-n string using
// exactly k elementary operations (see the file comment).
func pathLowerBound(m, n, k int) float64 {
	return 2 * float64(k) / float64(m+n+k)
}

// kBand returns the largest edit length not ruled out against bound: the
// result kmax satisfies pathLowerBound(m, n, k) > bound + bandSlack for
// every k in (kmax, m+n], so restricting Algorithm 1 to k ≤ kmax cannot
// change its minimum. The result is clamped to [de, m+n]; de (= dE(x, y),
// the minimal feasible edit length) keeps the band non-empty.
func kBand(m, n int, bound float64, de int) int {
	total := m + n
	kmax := total
	if b := bound + bandSlack; b < 2 { // the lower bound never reaches 2
		if q := b * float64(total) / (2 - b); q < float64(total) {
			kmax = int(q)
			if kmax < 0 {
				kmax = 0
			}
			// The closed-form floor can round low; walk up until the next k
			// is genuinely excluded so pruning stays conservative.
			for kmax < total && pathLowerBound(m, n, kmax+1) <= b {
				kmax++
			}
		}
	}
	if kmax > total {
		kmax = total
	}
	if kmax < de {
		kmax = de
	}
	return kmax
}

// Compute is the workspace form of the package-level Compute: the exact
// Algorithm 1, pruned to the k-band derived from the §4.1 heuristic and
// running entirely on the workspace's reusable buffers. The result —
// distance and path decomposition — is bit-identical to the unpruned
// reference algorithm.
func (w *Workspace) Compute(x, y []rune) Result {
	m, n := len(x), len(y)
	if m == 0 && n == 0 {
		return Result{Exact: true}
	}
	hres := w.HeuristicCompute(x, y)
	kmax := kBand(m, n, hres.Distance, hres.K)
	if kmax == hres.K {
		// The band collapsed to the single edit length the heuristic already
		// evaluated: the heuristic value is provably exact.
		hres.Exact = true
		return hres
	}
	res := w.computeBand(x, y, kmax, hres.K)
	res.Exact = true
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
// HeuristicCompute: the §4.1 dC,h dynamic program on reusable rows.
func (w *Workspace) HeuristicCompute(x, y []rune) Result {
	m, n := len(x), len(y)
	kr := grow32(&w.kr, n+1) // kmin for the current row
	ir := grow32(&w.ir, n+1) // max insertions at kmin
	for j := 0; j <= n; j++ {
		kr[j] = int32(j)
		ir[j] = int32(j)
	}
	for i := 1; i <= m; i++ {
		diagK, diagI := kr[0], ir[0]
		kr[0] = int32(i)
		ir[0] = 0
		xi := x[i-1]
		for j := 1; j <= n; j++ {
			upK, upI := kr[j], ir[j]
			var bk, bi int32
			if xi == y[j-1] {
				bk, bi = diagK, diagI // cost-0 match
			} else {
				bk, bi = diagK+1, diagI // substitution
			}
			if k := upK + 1; k < bk || (k == bk && upI > bi) {
				bk, bi = k, upI // deletion of x[i-1]
			}
			if k := kr[j-1] + 1; k < bk || (k == bk && ir[j-1]+1 > bi) {
				bk, bi = k, ir[j-1]+1 // insertion of y[j-1]
			}
			kr[j], ir[j] = bk, bi
			diagK, diagI = upK, upI
		}
	}
	k, ni := int(kr[n]), int(ir[n])
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
