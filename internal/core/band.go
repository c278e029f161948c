package core

import "math"

// This file holds the Stage 3 kernel: the banded Algorithm 1 sweep of
// workspace.go, a rolling row sweep over int32 cells, and the closed-formula
// sweep (finishBand) that turns its final band into a Result.
//
// The kernel produces exactly the final-row band of the unpruned reference
// algorithm on the edit lengths it keeps (TestBandKernelsAgree and the
// package fuzz targets pin this), so banding can never change a distance by
// even one ulp.
//
// Cells store the maximum number of insertions ni on any internal path to
// (i, j) with exactly k operations, encoded as ni+1 with 0 the "no such
// path" sentinel: the sentinel is the minimum, so the max-plus transitions
// need no special case for it, and scratch planes never need clearing — the
// kernel writes every feasible cell before any neighbour reads it.

// computeBand runs Algorithm 1 with the edit-length dimension restricted to
// [0, kmax] and returns the best decomposition over [max(kmin, |m−n|), kmax].
// kmin is the caller's proven lower bound on the edit length (dE, from the
// heuristic or the ladder's edit stage): every shorter edit length holds the
// sentinel — no path exists — and cannot win the final sweep.
func (w *Workspace) computeBand(x, y []rune, kmax, kmin int) Result {
	final := bandSweep(x, y, kmax, &w.prev, &w.cur)
	return w.finishBand(len(x), len(y), kmax, kmin, final)
}

// bandSweep is the rolling row sweep: two (j, k) planes, row i computed from
// row i−1, cells with |i−j| > kmax skipped wholesale. It returns the final
// cell's band (encoded, see the file comment), which aliases *prevBuf and is
// defined only on the feasible range [|m−n|, min(m+n, kmax)].
//
// Every cell (i, j) can only be non-sentinel for k in [|i−j|, i+j] (fewer
// operations cannot bridge the length difference; an internal path on the
// prefixes has at most j insertions, i deletions and min(i, j)
// substitutions), so each cell walks only that feasible sub-band, guards
// reads of its neighbours by *their* feasible bands, and never touches — or
// needs to clear — the rest of the scratch memory.
func bandSweep(x, y []rune, kmax int, prevBuf, curBuf *[]int32) []int32 {
	m, n := len(x), len(y)
	width := kmax + 1
	need := (n + 1) * width
	prev := grow32(prevBuf, need)
	cur := grow32(curBuf, need)

	// Row i = 0: reaching y[:j] from the empty prefix is possible only with
	// exactly j operations, all insertions.
	for j := 0; j <= n && j <= kmax; j++ {
		prev[j*width+j] = int32(j) + 1
	}
	for i := 1; i <= m; i++ {
		// Column j = 0: i deletions, no insertions — feasible only at k = i.
		if i <= kmax {
			cur[i] = 1
		}
		xi := x[i-1]
		jlo, jhi := i-kmax, i+kmax
		if jlo < 1 {
			jlo = 1
		}
		if jhi > n {
			jhi = n
		}
		for j := jlo; j <= jhi; j++ {
			row := cur[j*width : (j+1)*width]
			diag := prev[(j-1)*width : j*width]
			up := prev[j*width : (j+1)*width]  // delete x[i-1]
			left := cur[(j-1)*width : j*width] // insert y[j-1]

			// This cell's feasible band [klo, khi] and the diagonal's
			// [klo, dhi] (|i−j| is shared).
			klo := i - j
			if klo < 0 {
				klo = -klo
			}
			khi := i + j
			if khi > kmax {
				khi = kmax
			}
			dhi := i + j - 2
			if dhi > kmax {
				dhi = kmax
			}
			if xi == y[j-1] {
				// Cost-0 match: same k as the diagonal cell where that
				// cell is feasible, unreachable elsewhere.
				hi := dhi
				if hi > khi {
					hi = khi
				}
				copy(row[klo:hi+1], diag[klo:hi+1])
				for k := hi + 1; k <= khi; k++ {
					row[k] = 0
				}
			} else {
				// Substitution: one more operation than the diagonal cell.
				hi := dhi + 1
				if hi > khi {
					hi = khi
				}
				row[klo] = 0 // diag[klo-1] is outside the diagonal band
				for k := klo + 1; k <= hi; k++ {
					row[k] = diag[k-1]
				}
				for k := hi + 1; k <= khi; k++ {
					row[k] = 0
				}
			}
			// Deletion of x[i-1]: up cell (i−1, j), band [|i−j−1|, i+j−1].
			// A deletion keeps the insertion count, so the encoded value
			// carries unchanged.
			lo := i - j - 1
			if lo < 0 {
				lo = -lo
			}
			lo++ // transition adds one operation
			if lo < klo {
				lo = klo
			}
			hi := i + j // = min(i+j-1, kmax) + 1, capped to this cell's band
			if hi > khi {
				hi = khi
			}
			for k := lo; k <= hi; k++ {
				if v := up[k-1]; v > row[k] {
					row[k] = v
				}
			}
			// Insertion of y[j-1]: left cell (i, j−1), band [|i−j+1|,
			// i+j−1]. One more insertion, so the encoded value advances by
			// one; the sentinel (0) must not be mistaken for a path.
			lo = i - j + 1
			if lo < 0 {
				lo = -lo
			}
			lo++
			if lo < klo {
				lo = klo
			}
			for k := lo; k <= hi; k++ {
				if v := left[k-1]; v != 0 && v+1 > row[k] {
					row[k] = v + 1
				}
			}
		}
		prev, cur = cur, prev
	}
	*prevBuf, *curBuf = prev, cur // keep the swap so buffers reuse in place
	return prev[n*width : (n+1)*width]
}

// finishBand is the closed-formula sweep over the final cell's feasible
// band, identical to the reference algorithm's (restricted to the band,
// which contains every candidate that can win — see kBand). final holds
// the encoded maximum insertion count per edit length, as bandSweep
// returns it.
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
