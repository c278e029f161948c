// Package core implements the contextual normalised edit distance of
// de la Higuera and Micó ("A Contextual Normalised Edit Distance", ICDE
// 2008) — the primary contribution reproduced by this repository.
//
// The contextual distance dC weighs each elementary edit operation by the
// length of the string it is applied to: rewriting u into v in one step
// costs 1/max(|u|,|v|). Concretely a substitution or a deletion applied to a
// string of length l costs 1/l, and an insertion into a string of length l
// costs 1/(l+1). The distance between x and y is the minimum total weight
// over all rewriting paths from x to y.
//
// The paper proves three key facts, all of which this package relies on and
// tests:
//
//  1. dC is a metric (Theorem 1), so it can drive triangle-inequality-based
//     nearest-neighbour searchers such as LAESA.
//  2. For a fixed number k of edit operations, the cheapest path performs
//     all insertions first, then substitutions, then deletions (Lemma 1),
//     and only internal operations need be considered (Proposition 1). The
//     cost of the best path with k operations and ni insertions is
//     therefore a closed formula over harmonic numbers.
//  3. dC is computable in O(|x|·|y|·(|x|+|y|)) time by a dynamic program
//     (Algorithm 1) over ni[i][j][k], the maximum number of insertions on an
//     internal path from x[:i] to y[:j] using exactly k operations.
//
// Compute runs Algorithm 1 exactly — pruned to the edit-length band that
// the §4.1 heuristic upper bound proves sufficient, on pooled scratch
// memory (workspace.go) — and HeuristicCompute runs the quadratic heuristic
// dC,h of §4.1 itself (evaluate only the minimal feasible k), which the
// paper reports equals the exact value in about 90% of cases and which this
// package guarantees to be an upper bound of it. ComputeWindowed runs
// Compute's band with its upper end also capped at dE + window, a knob
// between the two. DistanceBounded evaluates the exact distance under a
// caller-supplied cutoff, abandoning the dynamic program when the band
// proves the distance exceeds it.
package core

import "math"

// negInf is the sentinel for "no internal path with this (i, j, k)". It is
// far enough from zero that adding 1 per insertion transition can never make
// a sentinel look like a feasible insertion count, yet far from the int32
// minimum so the additions cannot overflow.
const negInf int32 = -(1 << 20)

// Result describes the optimal path decomposition found for one distance
// evaluation.
type Result struct {
	// Distance is the contextual normalised edit distance (dC for Compute,
	// dC,h for HeuristicCompute).
	Distance float64
	// K is the number of unit edit operations (the plain edit length) of
	// the path realising Distance. For HeuristicCompute this is always the
	// Levenshtein distance between the inputs.
	K int
	// Insertions, Substitutions and Deletions decompose K; per Lemma 1 the
	// optimal path performs them in exactly that order.
	Insertions    int
	Substitutions int
	Deletions     int
	// Exact records whether the value came from the exact algorithm.
	Exact bool
}

// Distance returns the exact contextual normalised edit distance between x
// and y, running the banded Algorithm 1 of the paper in at most
// O(|x|·|y|·kmax) time — kmax ≤ |x|+|y| is the heuristic-derived edit-length
// band, see workspace.go, and each cell keeps only its own part of it, see
// band.go — and O(|x|·|y| + |y|·kmax) space, allocation-free at steady
// state.
func Distance(x, y []rune) float64 {
	return Compute(x, y).Distance
}

// withWorkspace runs fn on a pooled workspace and recycles the workspace
// afterwards. The deferred Put makes the round-trip panic-safe: a panic
// escaping fn still returns the workspace to the pool, which is sound
// because every kernel re-derives its buffers from scratch per call (no
// cell is read before being written and the harmonic prefix only ever
// grows), so a half-finished evaluation cannot poison the next one.
//
// This pairing is the canonical shape cedvet's poolleak analyzer enforces
// repo-wide: every pool checkout either defers its release like this or
// carries a //ced:poolleak-ok ownership-transfer annotation (see
// internal/analysis).
func withWorkspace[T any](fn func(w *Workspace) T) T {
	w := workspaces.Get().(*Workspace)
	defer workspaces.Put(w)
	return fn(w)
}

// DistanceBounded evaluates the exact contextual distance under a cutoff:
// it returns (dC(x, y), true) whenever dC(x, y) ≤ cutoff, and otherwise may
// abandon the evaluation once the staged bound ladder proves
// dC(x, y) > cutoff, returning (v, false) with cutoff < v and dC(x, y) ≤ v.
// Metric-space searchers pass their current pruning radius as the cutoff so
// that far-away candidates cost a fraction of a full evaluation; see
// Workspace.ComputeBounded for the exact contract.
func DistanceBounded(x, y []rune, cutoff float64) (float64, bool) {
	res, exact, _ := DistanceBoundedStaged(x, y, cutoff)
	return res, exact
}

// DistanceBoundedStaged is DistanceBounded with the resolving ladder rung
// reported; see Workspace.ComputeBoundedStaged.
func DistanceBoundedStaged(x, y []rune, cutoff float64) (float64, bool, Stage) {
	type outcome struct {
		d     float64
		exact bool
		stage Stage
	}
	o := withWorkspace(func(w *Workspace) outcome {
		res, exact, stage := w.ComputeBoundedStaged(x, y, cutoff)
		return outcome{res.Distance, exact, stage}
	})
	return o.d, o.exact, o.stage
}

// EditBracket returns the interval Lemma 1 puts around dC(x, y) once the
// edit distance is known: it resolves dE(x, y) exactly with the
// bit-parallel Myers kernel, O(|x|·⌈|y|/64⌉), and returns
//
//	lo = the cheapest dE-operation path's cost,
//	hi = the dE-operation path with the fewest insertions' cost,
//
// with lo ≤ Distance(x, y) and HeuristicCompute(x, y).Distance ≤ hi as
// computed, not only up to rounding: lo is the value Compute's sweep
// reaches at that decomposition, and hi the value the heuristic reaches at
// its own. A searcher that needs only to bound dC pays for one dE instead
// of a quadratic program.
func EditBracket(x, y []rune) (lo, hi float64) {
	b := withWorkspace(func(w *Workspace) [2]float64 {
		m, n := len(x), len(y)
		de := w.ed.MyersBounded(x, y, max(m, n))
		h := w.harmonic(m + n)
		return [2]float64{pathLowerBound(h, m, n, de), pathUpperBound(h, m, n, de)}
	})
	return b[0], b[1]
}

// Compute runs the exact Algorithm 1 — pruned to the edit-length band
// derived from the §4.1 heuristic upper bound and running on pooled scratch
// memory (see workspace.go) — and returns the full decomposition of the
// optimal path. The result is bit-identical to computeReference, the
// unpruned seed algorithm, which the package's differential fuzz tests
// enforce.
func Compute(x, y []rune) Result {
	return withWorkspace(func(w *Workspace) Result { return w.Compute(x, y) })
}

// ComputeWindowed runs Algorithm 1 with the edit-length dimension capped at
// dE(x, y) + window as well as at the band Compute sweeps (see
// workspace.go), on pooled scratch memory. It answers the paper's §5 remark
// that "the cubic complexity of Algorithm 1 is clearly too high" with a
// knob between the two kernels, and never costs more than Compute.
//
// The result is sandwiched between the exact distance and the heuristic:
//
//	dC(x, y)  <=  ComputeWindowed(x, y, w).Distance  <=  dC,h(x, y)
//
// with equality on the right at w <= 0 (only the minimal edit length is
// inspected, which is the §4.1 heuristic) and equality on the left once
// the window covers every edit length the band leaves open (the Result is
// then marked Exact, as it is from w = |x|+|y| on). The §4.1 observation
// that the optimum almost always sits at k = dE means small windows are
// almost always exact.
func ComputeWindowed(x, y []rune, window int) Result {
	return withWorkspace(func(w *Workspace) Result { return w.ComputeWindowed(x, y, window) })
}

// Windowed returns just the distance from ComputeWindowed.
func Windowed(x, y []rune, window int) float64 {
	return ComputeWindowed(x, y, window).Distance
}

// computeReference is the unpruned seed implementation of Algorithm 1,
// retained verbatim as the differential-testing reference for the banded
// kernel (workspace.go): it allocates its planes per call and always sweeps
// the full edit-length range k ∈ [0, |x|+|y|].
//
// The dynamic program fills ni[i][j][k] — the maximum number of insertions
// over internal paths from x[:i] to y[:j] with exactly k unit operations
// (negInf when no such path exists) — rolling over i so only two (j, k)
// planes are live. The final distance is the minimum over feasible k of
//
//	H(|x|+Ni) − H(|x|)  +  Ns/(|x|+Ni)  +  H(|y|+Nd) − H(|y|)
//
// with Ni = ni[|x|][|y|][k], Nd = |x| − |y| + Ni, Ns = k − Ni − Nd, where H
// is the harmonic number: insertions are applied first on growing strings,
// substitutions on the longest intermediate string, deletions last on
// shrinking strings (Lemma 1).
func computeReference(x, y []rune) Result {
	m, n := len(x), len(y)
	if m == 0 && n == 0 {
		return Result{Exact: true}
	}
	maxK := m + n
	width := maxK + 1

	prev := make([]int32, (n+1)*width)
	cur := make([]int32, (n+1)*width)
	// Row i = 0: reaching y[:j] from the empty prefix takes exactly j
	// insertions, all of them insertions.
	for idx := range prev {
		prev[idx] = negInf
	}
	for j := 0; j <= n; j++ {
		prev[j*width+j] = int32(j)
	}
	for i := 1; i <= m; i++ {
		for idx := range cur {
			cur[idx] = negInf
		}
		// Column j = 0: i deletions, no insertions.
		cur[i] = 0
		xi := x[i-1]
		for j := 1; j <= n; j++ {
			row := cur[j*width : (j+1)*width]
			diag := prev[(j-1)*width : j*width]
			up := prev[j*width : (j+1)*width]  // delete x[i-1]
			left := cur[(j-1)*width : j*width] // insert y[j-1]
			if xi == y[j-1] {
				// Cost-0 match: same k as the diagonal cell.
				copy(row, diag)
			} else {
				// Substitution: one more operation than the diagonal cell.
				for k := 1; k <= maxK; k++ {
					row[k] = diag[k-1]
				}
				row[0] = negInf
			}
			for k := 1; k <= maxK; k++ {
				v := row[k]
				if w := up[k-1]; w > v {
					v = w
				}
				if w := left[k-1]; w >= 0 && w+1 > v {
					v = w + 1
				}
				row[k] = v
			}
		}
		prev, cur = cur, prev
	}

	final := prev[n*width : (n+1)*width]
	h := harmonicPrefix(maxK)
	best := math.Inf(1)
	var bestK, bestNi, bestNs, bestNd int
	for k := 0; k <= maxK; k++ {
		if final[k] < 0 {
			continue
		}
		ni := int(final[k])
		nd := m - n + ni
		ns := k - ni - nd
		if nd < 0 || ns < 0 {
			continue // cannot happen for a genuine internal path; defensive
		}
		d := h[m+ni] - h[m] + h[n+nd] - h[n]
		if ns > 0 {
			d += float64(ns) / float64(m+ni)
		}
		if d < best {
			best = d
			bestK, bestNi, bestNs, bestNd = k, ni, ns, nd
		}
	}
	return Result{
		Distance:      best,
		K:             bestK,
		Insertions:    bestNi,
		Substitutions: bestNs,
		Deletions:     bestNd,
		Exact:         true,
	}
}

// Heuristic returns the quadratic-time heuristic dC,h of §4.1 of the paper:
// instead of evaluating every feasible edit length k, only the minimal one
// (the plain Levenshtein distance) is evaluated, with the maximum number of
// insertions attainable at that length. dC,h(x, y) >= dC(x, y) always, with
// equality in the vast majority of cases (~90% in the paper's benchmarks).
func Heuristic(x, y []rune) float64 {
	return HeuristicCompute(x, y).Distance
}

// HeuristicCompute runs the dC,h dynamic program on a pooled scratch row
// and returns the decomposition it evaluated. It runs in O(|x|·|y|) time
// and O(|y|) space, allocation-free at steady state.
//
// Each cell carries (kmin, ni) for a pair of suffixes: their Levenshtein
// distance and the maximum number of insertions over minimum-operation
// internal paths, with ties broken toward more insertions (longer
// intermediate strings are cheaper, Lemma 1), packed into one integer key.
// See Workspace.heuristic for the kernel.
func HeuristicCompute(x, y []rune) Result {
	return withWorkspace(func(w *Workspace) Result { return w.HeuristicCompute(x, y) })
}
