package core

import "math"

// This file holds the Stage 3 kernel: the banded Algorithm 1 sweep of
// workspace.go, a rolling row sweep over int32 cells, and the closed-formula
// sweep (finishBand) that turns its final band into a Result.
//
// The sweep keeps, in each cell (i, j), only the edit lengths that a path
// into the final band [dE, kmax] can carry through it:
//
//	k ∈ [dE(x[:i], y[:j]), min(i+j, kmax − dE(x[i:], y[j:]))]
//
// Fewer operations cannot reach the prefixes, more leave too few for the
// suffixes, and an internal path on the prefixes has at most i+j
// operations. Every path into the final band crosses only kept (cell, k)
// states, so the kernel produces exactly the unpruned reference
// algorithm's final band on [dE, kmax] (TestBandKernelsAgree and the
// package fuzz targets pin this), and banding can never change a distance
// by even one ulp.
//
// Only the tube, the cells where the two edit distances sum to at most
// kmax, keeps any k, and the sweep visits only the tube and a thin border
// around it (see bandSweep). The suffix distances come from the
// heuristic's backward pass (workspace.go).
//
// Cells store the maximum number of insertions ni on any internal path to
// (i, j) with exactly k operations, encoded as ni+1 with 0 the "no such
// path" sentinel: the sentinel is the minimum, so the max-plus transitions
// need no special case for it. Scratch planes and prefix rows are not
// cleared between calls: the kernel writes each cell's whole band before
// any neighbour reads it, reads a neighbour only inside the band it wrote,
// and reads a prefix distance only on the span it wrote in the previous
// row, fenced by tubeGap, because cells from earlier calls stay in the
// reused buffers.

// computeBand runs Algorithm 1 with the edit-length dimension restricted to
// [0, kmax] and returns the best decomposition over [max(kmin, |m−n|), kmax].
// kmin is the caller's proven lower bound on the edit length (dE, from the
// heuristic or the ladder's edit stage): every shorter edit length holds no
// path and cannot win the final sweep. suf holds the suffix edit distances
// the heuristic recorded for x and y (see Workspace.heuristic).
func (w *Workspace) computeBand(x, y []rune, suf []int32, kmax, kmin int) Result {
	final := w.bandSweep(x, y, suf, kmax)
	return w.finishBand(len(x), len(y), kmax, kmin, final)
}

// tubeGap reads as +∞ in the prefix rows: the prefix distance of a cell
// outside the previous row's tube span. Adding 1 to it cannot overflow.
const tubeGap int32 = 1 << 30

// bandSweep is the rolling row sweep: two (j, k) planes, row i computed from
// row i−1, each cell walking only its band (see the file comment). suf holds
// the suffix edit distances dE(x[i:], y[j:]) that close the bands, row-major
// with stride |y|+1; the prefix edit distances that open them are computed
// row by row as the sweep goes. It returns the final cell's band (encoded,
// see the file comment), which aliases w.prev and is defined on
// [0, min(m+n, kmax)]: the sentinel below dE(x, y), the reference
// algorithm's cells from there.
//
// Only tube cells, pre + suf ≤ kmax, keep an edit length, and a tube
// cell's minimising neighbour in the prefix recurrence is itself a tube
// cell (it reaches the cell at the cost the recurrence adds, so its own
// suffix distance is at most that cost plus the cell's). Row i therefore
// visits only the columns from the first to one past the last tube cell of
// row i−1, plus the run its insertions reach from there, and reads every
// prefix distance of row i−1 outside [first, last] as +∞. Tube cells get
// their exact prefix distance; every other visited cell gets one at least
// as large, so it stays outside the tube. A kmax below dE(x, y) leaves no
// tube cell and an empty final band.
//
// Guarding reads needs only the neighbours' lower ends. A suffix distance
// grows by at most one per step back (and not at all across a match), so
// no transition reads its neighbour above that neighbour's upper end,
// except where the diagonal's i+j−2 cap cuts in. Across a match into a
// tube cell the diagonal is a tube cell with this cell's lower end.
func (w *Workspace) bandSweep(x, y []rune, suf []int32, kmax int) []int32 {
	m, n := len(x), len(y)
	width := kmax + 1
	prev := grow(&w.prev, (n+1)*width)
	cur := grow(&w.cur, (n+1)*width)
	stride := n + 1
	pre := grow(&w.pre, 2*stride)
	preP := pre[:stride] // dE(x[:i−1], y[:j]) on the previous row's span
	preC := pre[stride:] // dE(x[:i], y[:j]) on this row's span

	// Row i = 0: reaching y[:j] from the empty prefix takes exactly j
	// operations, all insertions. A cell's one neighbour is the one to its
	// left, so the row's tube is a prefix [0, last] of it.
	first, last := 0, -1
	for j := 0; j <= n && j <= kmax-int(suf[j]); j++ {
		preP[j] = int32(j)
		prev[j*width+j] = int32(j) + 1
		last = j
	}
	if last < 0 {
		// kmax < dE(x, y) = suf[0]: no path is that short.
		final := prev[n*width : (n+1)*width]
		clear(final)
		return final
	}
	for i := 1; i <= m; i++ {
		sufRow := suf[i*stride : (i+1)*stride]
		if first > 0 {
			preP[first-1], preC[first-1] = tubeGap, tubeGap
		}
		if last < n {
			preP[last+1] = tubeGap
		}
		end := min(last+1, n) // past it no up or diagonal cell is in the tube
		j := first
		first, last = -1, -1
		if j == 0 {
			// Column j = 0: i deletions, no insertions.
			preC[0] = int32(i)
			if i <= kmax-int(sufRow[0]) {
				cur[i] = 1
				first, last = 0, 0
			}
			j = 1
		}
		xi := x[i-1]
		for ; j <= n; j++ {
			// The diagonal's, the up cell's and the left cell's prefix
			// distances; past end only the left cell can be in the tube,
			// and only while the run of tube cells has not broken.
			pd, pu := tubeGap, tubeGap
			if j <= end {
				pd, pu = preP[j-1], preP[j]
			} else if last != j-1 {
				break
			}
			pl := preC[j-1]
			match := xi == y[j-1]
			p := pd
			if !match {
				p++
			}
			p = min(p, pu+1, pl+1)
			preC[j] = p
			lo, hi := int(p), min(kmax-int(sufRow[j]), i+j)
			if lo > hi {
				continue
			}
			if first < 0 {
				first = j
			}
			last = j
			// The three moves, each over the edit lengths its neighbour's
			// band feeds: a cost-0 match keeps the diagonal's k (feasible
			// up to i+j−2, from this cell's lower end, which the diagonal
			// shares), a substitution adds one to it (from pd), a deletion
			// of x[i-1] adds one to the up cell's (from pu) and keeps the
			// insertion count, an insertion of y[j-1] adds one to the left
			// cell's (from pl) and advances the encoded count by one. The
			// sentinel (0) must not be mistaken for a path.
			dFrom, dTo, dOff := int(pd)+1, i+j-1, 1
			if match {
				dFrom, dTo, dOff = lo, i+j-2, 0
			}
			uFrom, lFrom := int(pu)+1, int(pl)+1
			at, dt := j*width, (j-1)*width // this cell and up; diagonal and left
			for k := lo; k <= hi; k++ {
				var v int32
				if k >= dFrom && k <= dTo {
					v = prev[dt+k-dOff]
				}
				if k >= uFrom {
					v = max(v, prev[at+k-1])
				}
				if k >= lFrom {
					if u := cur[dt+k-1]; u != 0 {
						v = max(v, u+1)
					}
				}
				cur[at+k] = v
			}
		}
		prev, cur = cur, prev
		preP, preC = preC, preP
	}
	w.prev, w.cur = prev, cur // keep the swap so buffers reuse in place
	final := prev[n*width : (n+1)*width]
	// Below dE the final cell kept nothing; its plane still holds cells of
	// earlier rows. No path is that short.
	clear(final[:min(int(preP[n]), width)])
	return final
}

// finishBand is the closed-formula sweep over the final cell's band,
// identical to the reference algorithm's (restricted to the band, which
// contains every candidate that can win — see kBand). final holds the
// encoded maximum insertion count per edit length, as bandSweep returns
// it.
func (w *Workspace) finishBand(m, n, kmax, kmin int, final []int32) Result {
	klo := m - n
	if klo < 0 {
		klo = -klo
	}
	if kmin > klo {
		klo = kmin
	}
	khi := m + n
	if khi > kmax {
		khi = kmax
	}
	h := w.harmonic(m + n)
	best := math.Inf(1)
	var bestK, bestNi, bestNs, bestNd int
	for k := klo; k <= khi; k++ {
		if final[k] == 0 {
			continue
		}
		ni := int(final[k]) - 1
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
	}
}
