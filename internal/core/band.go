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
// Cells store the maximum number of insertions ni on any internal path to
// (i, j) with exactly k operations, encoded as ni+1 with 0 the "no such
// path" sentinel: the sentinel is the minimum, so the max-plus transitions
// need no special case for it. Scratch planes are not cleared between
// calls: the kernel writes each cell's whole band before any neighbour
// reads it, and reads a neighbour only inside the band it wrote, because
// cells from earlier calls stay in the reused planes.

// computeBand runs Algorithm 1 with the edit-length dimension restricted to
// [0, kmax] and returns the best decomposition over [max(kmin, |m−n|), kmax].
// kmin is the caller's proven lower bound on the edit length (dE, from the
// heuristic or the ladder's edit stage): every shorter edit length holds no
// path and cannot win the final sweep.
func (w *Workspace) computeBand(x, y []rune, kmax, kmin int) Result {
	final := w.bandSweep(x, y, kmax)
	return w.finishBand(len(x), len(y), kmax, kmin, final)
}

// bandSweep is the rolling row sweep: two (j, k) planes, row i computed from
// row i−1, each cell walking only its band (see the file comment). The
// prefix edit distances that open the bands are computed row by row as the
// sweep goes; the suffix edit distances that close them come from one
// reverse pass first. It returns the final cell's band (encoded, see the
// file comment), which aliases w.prev and is defined on [0, min(m+n, kmax)]:
// the sentinel below dE(x, y), the reference algorithm's cells from there.
//
// Guarding reads needs only the neighbours' lower ends. A suffix distance
// grows by at most one per step back (and not at all across a match), so
// no transition reads its neighbour above that neighbour's upper end,
// except where the diagonal's i+j−2 cap cuts in. Across a match the
// diagonal's lower end equals this cell's.
func (w *Workspace) bandSweep(x, y []rune, kmax int) []int32 {
	m, n := len(x), len(y)
	width := kmax + 1
	prev := grow32(&w.prev, (n+1)*width)
	cur := grow32(&w.cur, (n+1)*width)
	stride := n + 1
	eds := grow32(&w.eds, (m+3)*stride)
	suf := eds[:(m+1)*stride]
	preP := eds[(m+1)*stride : (m+2)*stride] // dE(x[:i−1], y[:j])
	preC := eds[(m+2)*stride:]               // dE(x[:i], y[:j])
	suffixEdits(x, y, suf)

	// Row i = 0: reaching y[:j] from the empty prefix takes exactly j
	// operations, all insertions.
	for j := 0; j <= n; j++ {
		preP[j] = int32(j)
		if j <= kmax-int(suf[j]) {
			prev[j*width+j] = int32(j) + 1
		}
	}
	for i := 1; i <= m; i++ {
		sufRow := suf[i*stride : (i+1)*stride]
		// Column j = 0: i deletions, no insertions.
		preC[0] = int32(i)
		if i <= kmax-int(sufRow[0]) {
			cur[i] = 1
		}
		xi := x[i-1]
		for j := 1; j <= n; j++ {
			match := xi == y[j-1]
			pre := preP[j-1] // diagonal, then the minimum over the three moves
			if !match {
				pre++
			}
			if v := preP[j] + 1; v < pre {
				pre = v
			}
			if v := preC[j-1] + 1; v < pre {
				pre = v
			}
			preC[j] = pre
			lo, hi := int(pre), min(kmax-int(sufRow[j]), i+j)
			if lo > hi {
				continue
			}
			row := cur[j*width : j*width+hi+1]
			diag := prev[(j-1)*width : j*width]
			up := prev[j*width : (j+1)*width]  // delete x[i-1]
			left := cur[(j-1)*width : j*width] // insert y[j-1]

			if match {
				// Cost-0 match: same k as the diagonal cell, which is
				// feasible up to i+j−2 and shares this cell's lower end.
				top := min(hi, i+j-2)
				copy(row[lo:top+1], diag[lo:top+1])
				clear(row[top+1:])
			} else {
				// Substitution: one more operation than the diagonal cell,
				// whose band starts at preP[j−1].
				from := max(lo, int(preP[j-1])+1)
				top := min(hi, i+j-1)
				clear(row[lo:from])
				copy(row[from:top+1], diag[from-1:top])
				clear(row[top+1:])
			}
			// Deletion of x[i-1]: the up cell's band starts at preP[j]. A
			// deletion keeps the insertion count, so the encoded value
			// carries unchanged.
			if from := max(lo, int(preP[j])+1); from <= hi {
				src := up[from-1 : hi]
				dst := row[from:]
				for t, v := range src {
					if v > dst[t] {
						dst[t] = v
					}
				}
			}
			// Insertion of y[j-1]: the left cell's band starts at
			// preC[j−1]. One more insertion, so the encoded value advances
			// by one; the sentinel (0) must not be mistaken for a path.
			if from := max(lo, int(preC[j-1])+1); from <= hi {
				src := left[from-1 : hi]
				dst := row[from:]
				for t, v := range src {
					if v != 0 && v+1 > dst[t] {
						dst[t] = v + 1
					}
				}
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

// suffixEdits fills suf, row-major with stride |y|+1, with the suffix edit
// distances dE(x[i:], y[j:]) for every cell: one reverse Wagner–Fischer
// pass.
func suffixEdits(x, y []rune, suf []int32) {
	m, n := len(x), len(y)
	stride := n + 1
	last := suf[m*stride : (m+1)*stride]
	for j := range last {
		last[j] = int32(n - j)
	}
	for i := m - 1; i >= 0; i-- {
		row := suf[i*stride : (i+1)*stride]
		below := suf[(i+1)*stride : (i+2)*stride]
		row[n] = int32(m - i)
		xi := x[i]
		for j := n - 1; j >= 0; j-- {
			v := below[j+1]
			if xi != y[j] {
				v++
			}
			if d := below[j] + 1; d < v {
				v = d
			}
			if d := row[j+1] + 1; d < v {
				v = d
			}
			row[j] = v
		}
	}
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
