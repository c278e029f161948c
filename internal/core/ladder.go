package core

// This file implements the staged bound ladder behind ComputeBounded: a
// sequence of ever-more-expensive lower bounds on dC, each able to reject a
// candidate against the caller's cutoff before the next rung spends more
// work. The rungs, in order of cost:
//
//	Stage 0 (length, O(1)):          any path needs k >= ||x|−|y|| operations,
//	                                 so dC >= 2·||x|−|y||/(|x|+|y|+||x|−|y||).
//	Stage 1 (edit, O(|x|) bit-par.): k >= dE(x, y), so dC >= 2·dE/(|x|+|y|+dE).
//	                                 The cutoff inverts into a maximum edit
//	                                 length and the bounded Myers kernel
//	                                 (internal/editdist) resolves dE against
//	                                 it, early-exiting on far pairs.
//	Stage 2 (heuristic, O(|x|·|y|)): the §4.1 dC,h upper bound collapses the
//	                                 edit-length band; when the cutoff-
//	                                 tightened band is empty beyond dE the
//	                                 candidate resolves without the exact DP.
//	Stage 3 (exact, O(|x|·|y|·k)):   the banded Algorithm 1 sweep, entered
//	                                 with the band narrowed on both ends
//	                                 (kmin = dE from stage 1/2, kmax from the
//	                                 cutoff and the dC,h bound).
//
// Every rung's bound is monotone in k (see workspace.go), so a rejection is
// a proof that dC exceeds the cutoff — the ladder never changes results,
// only the cost of reaching them. Metric-space searchers run almost all of
// their candidates into a rejection; the ladder prices those misses at the
// cheapest rung that can decide them, the same bounded-evaluation structure
// Fisman et al. (arXiv:2201.06115) and Pepin (arXiv:2011.04072) use to make
// normalised metrics searchable.

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
	// has been allocated or touched beyond the two lengths.
	gap := m - n
	if gap < 0 {
		gap = -gap
	}
	if pathLowerBound(m, n, gap) > cutoff+bailSlack {
		return Result{Distance: UpperBound(m, n)}, false, StageLength
	}

	// Stage 1: invert the cutoff into the largest edit length it admits and
	// resolve dE against it with the bounded Myers kernel. When the cutoff
	// admits every feasible edit length (kcut >= max(m, n) >= dE) the scan
	// cannot reject and is skipped — dE falls out of the heuristic anyway.
	kcut := kBand(m, n, cutoff, gap)
	if maxLen := max(m, n); kcut < maxLen {
		if de := w.ed.MyersBounded(x, y, kcut); de > kcut {
			// dE > kcut, so every feasible edit length is beyond the band the
			// cutoff admits: dC >= pathLowerBound(m, n, dE) > cutoff.
			return Result{Distance: UpperBound(m, n)}, false, StageEdit
		}
	}

	// Stage 2: the quadratic heuristic. Its edit length is the exact dE
	// (tightening the ladder's k lower bound to a definite value) and its
	// distance is an upper bound of dC that caps the band from above.
	hres := w.HeuristicCompute(x, y)
	if pathLowerBound(m, n, hres.K) > cutoff+bailSlack {
		// Only reachable in the slack window stage 1 refuses to decide
		// (bandSlack-conservative versus this bailSlack comparison).
		return hres, false, StageHeuristic
	}
	kmaxUb := kBand(m, n, hres.Distance, hres.K)
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
	res := w.computeBand(x, y, kmax, hres.K)
	exact := kmax == kmaxUb || res.Distance <= cutoff
	res.Exact = exact
	return res, exact, StageExact
}
