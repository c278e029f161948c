package core

// This file implements the staged bound ladder behind ComputeBounded: a
// sequence of ever-more-expensive lower bounds on dC, each able to reject a
// candidate against the caller's cutoff before the next rung spends more
// work. Every rung's lower bound is lb(k), the Lemma 1 minimum cost of a
// k-operation path (pathLowerBound, workspace.go), at the best edit length
// the rung has proven. The rungs, in order of cost:
//
//	Stage 0 (length, O(1)):          any path needs k >= ||x|−|y|| operations,
//	                                 so dC >= lb(||x|−|y||) = |H(|x|) − H(|y|)|.
//	Stage 1 (edit, O(|x|) bit-par.): k >= dE(x, y), so dC >= lb(dE).
//	                                 The cutoff inverts into a maximum edit
//	                                 length and the bounded Myers kernel
//	                                 (internal/editdist) resolves dE against
//	                                 it, early-exiting on far pairs.
//	Stage 2 (heuristic, O(K·(|x|+|y|))): the §4.1 dC,h upper bound
//	                                 collapses the edit-length band; when
//	                                 the cutoff-tightened band is empty
//	                                 beyond dE the candidate resolves
//	                                 without the exact DP. Its backward
//	                                 pass also records the suffix edit
//	                                 distances stage 3 needs. Once stage 1
//	                                 has resolved dE it visits only the
//	                                 cells within K operations, K the
//	                                 widest stage 3 band dE's bracket and
//	                                 the cutoff allow; otherwise the whole
//	                                 |x|·|y| grid.
//	Stage 3 (exact, O(tube)):        the banded Algorithm 1 sweep, entered
//	                                 with the band narrowed on both ends
//	                                 (kmin = dE from stage 1/2, kmax from the
//	                                 cutoff and the dC,h bound), visiting
//	                                 only the cells whose prefix and suffix
//	                                 edit distances leave an edit length
//	                                 open, each on its own band (band.go).
//
// lb is monotone in k (see workspace.go), so a rejection is a proof that dC
// exceeds the cutoff — the ladder never changes results, only the cost of
// reaching them. Metric-space searchers run almost all of their candidates
// into a rejection; the ladder prices those misses at the cheapest rung
// that can decide them, the same bounded-evaluation structure Fisman et al.
// (arXiv:2201.06115) and Pepin (arXiv:2011.04072) use to make normalised
// metrics searchable.

// Stage identifies the ladder rung that resolved one bounded evaluation.
type Stage uint8

const (
	// StageLength is the O(1) length-difference lower bound.
	StageLength Stage = iota
	// StageEdit is the bounded bit-parallel edit-distance lower bound.
	StageEdit
	// StageHeuristic is the quadratic dC,h upper bound and the band collapse
	// it proves (a candidate resolved here never entered the exact DP).
	StageHeuristic
	// StageExact is the banded exact dynamic program.
	StageExact
)

// NumStages is the number of ladder rungs; per-stage counters are indexed
// by Stage.
const NumStages = 4

var stageNames = [NumStages]string{"length", "edit", "heuristic", "exact"}

// String returns the short stage name used in serving metadata ("length",
// "edit", "heuristic", "exact").
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageCounts counts bounded evaluations by the ladder rung that resolved
// them — the per-stage rejection statistic the searchers and the serving
// layer report. It is an array, so values copy and compare like scalars.
type StageCounts [NumStages]int64

// Merge adds o into c, counter by counter.
func (c *StageCounts) Merge(o StageCounts) {
	for i := range c {
		c[i] += o[i]
	}
}

// Total returns the sum over all stages.
func (c StageCounts) Total() int64 {
	t := int64(0)
	for _, v := range c {
		t += v
	}
	return t
}

// ComputeBoundedStaged is ComputeBounded with the resolving ladder rung
// reported: the Stage tells the caller which bound decided the evaluation —
// on a rejection (exact = false), the cheapest rung whose lower bound
// cleared the cutoff; on an exact result, StageHeuristic when the band
// collapsed to the single dE candidate and StageExact when the banded
// dynamic program ran. Searchers aggregate the stages into per-query
// StageCounts.
//
// Unlike ComputeBounded's stage-2/3 rejections, which hand back the dC,h
// evaluation as the upper bound, stage-0/1 rejections happen before any
// dynamic program has run; they return the closed-form UpperBound of the
// length pair, with the rest of the Result zero.
func (w *Workspace) ComputeBoundedStaged(x, y []rune, cutoff float64) (Result, bool, Stage) {
	m, n := len(x), len(y)
	if m == 0 && n == 0 {
		return Result{Exact: true}, true, StageLength
	}

	// Stage 0: the length gap alone caps how cheap any path can be. Nothing
	// is touched beyond the two lengths and the harmonic table.
	gap := m - n
	if gap < 0 {
		gap = -gap
	}
	h := w.harmonic(m + n)
	if pathLowerBound(h, m, n, gap) > cutoff+bailSlack {
		return Result{Distance: upperBound(h, m, n)}, false, StageLength
	}

	// Stage 1: invert the cutoff into the largest edit length it admits and
	// resolve dE against it with the bounded Myers kernel. When the cutoff
	// admits every feasible edit length (kcut >= max(m, n) >= dE) the scan
	// cannot reject and is skipped — dE falls out of the heuristic anyway.
	kcut := kBand(h, m, n, cutoff, gap)
	band := m + n // the cells Stage 2 visits: the whole grid
	if maxLen := max(m, n); kcut < maxLen {
		de := w.ed.MyersBounded(x, y, kcut)
		if de > kcut {
			// dE > kcut, so every feasible edit length is beyond the band the
			// cutoff admits: dC >= pathLowerBound(h, m, n, dE) > cutoff.
			return Result{Distance: upperBound(h, m, n)}, false, StageEdit
		}
		// dE is known, and pathUpperBound(dE) >= dC,h caps the band of
		// Stage 3 from above before the heuristic runs, so Stage 2 visits
		// only the cells a path of at most that many operations crosses.
		band = min(kcut, kBand(h, m, n, pathUpperBound(h, m, n, de), de))
	}

	// Stage 2: the quadratic heuristic. Its edit length is the exact dE
	// (tightening the ladder's k lower bound to a definite value) and its
	// distance is an upper bound of dC that caps the band from above.
	suf := grow(&w.suf, (m+1)*(n+1))
	hres := w.heuristic(x, y, suf, band)
	if pathLowerBound(h, m, n, hres.K) > cutoff+bailSlack {
		// Only reachable in the slack window stage 1 refuses to decide
		// (bandSlack-conservative versus this bailSlack comparison).
		return hres, false, StageHeuristic
	}
	kmaxUb := kBand(h, m, n, hres.Distance, hres.K)
	kmax := kmaxUb
	if kcut < kmax {
		kmax = kcut
	}
	if kmax < hres.K {
		kmax = hres.K
	}
	if kmax == hres.K {
		// Band collapsed to the single edit length the heuristic already
		// evaluated: its value is provably exact (kmax == kmaxUb) or provably
		// beyond the cutoff (the cutoff emptied the band above dE).
		exact := kmax == kmaxUb || hres.Distance <= cutoff
		hres.Exact = exact
		return hres, exact, StageHeuristic
	}

	// Stage 3: the banded exact sweep over [dE, kmax].
	res := w.computeBand(x, y, suf, kmax, hres.K)
	exact := kmax == kmaxUb || res.Distance <= cutoff
	res.Exact = exact
	return res, exact, StageExact
}
