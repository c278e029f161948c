// Package editdist implements the classical Levenshtein (edit) distance
// together with the specialised engines the rest of the repository builds on:
// the two-row dynamic program (Distance, the reference every other engine is
// tested against), the bounded bit-parallel Myers engines behind the query
// ladder and the batch kernels (bounded.go, batch.go), and the
// path-length-constrained dynamic program over weighted costs that powers
// the exact Marzal-Vidal normalised distance (pathlen.go, costs.go).
//
// All functions operate on []rune so that datasets over non-ASCII alphabets
// (the Spanish dictionary uses ñ and accented vowels) are handled correctly.
// String convenience wrappers convert once and delegate.
package editdist

// Distance returns the unit-cost Levenshtein distance between a and b: the
// minimum number of single-symbol insertions, deletions and substitutions
// that rewrite a into b.
//
// It runs the classical Wagner-Fischer dynamic program with two rows, using
// O(len(a)·len(b)) time and O(min(len(a),len(b))) space.
func Distance(a, b []rune) int {
	if len(b) > len(a) {
		a, b = b, a
	}
	n := len(b)
	if n == 0 {
		return len(a)
	}
	row := make([]int, n+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		diag := row[0] // D[i-1][j-1]
		row[0] = i
		ai := a[i-1]
		for j := 1; j <= n; j++ {
			up := row[j] // D[i-1][j]
			d := up + 1  // delete a[i-1]
			if ins := row[j-1] + 1; ins < d {
				d = ins // insert b[j-1]
			}
			sub := diag
			if ai != b[j-1] {
				sub++
			}
			if sub < d {
				d = sub
			}
			row[j] = d
			diag = up
		}
	}
	return row[n]
}

// bandedRows returns the Levenshtein distance between a and b if it is at
// most k, and k+1 otherwise. It runs the Ukkonen banded dynamic program,
// touching only the diagonal band of width 2k+1 (O(k·min(len(a),len(b)))
// time), on the caller's rolling rows: len(a) >= len(b) = len(prev)-1 =
// len(cur)-1 > 0 and k >= len(a)-len(b) are established by the caller. Row
// contents on entry are irrelevant: every cell the band reads was written
// first, so Scratch.banded, the wide-symbol fallback of
// Scratch.MyersBounded, reuses its rows without clearing them.
func bandedRows(a, b []rune, k int, prev, cur []int) int {
	m, n := len(a), len(b)
	const inf = int(^uint(0) >> 2)
	for j := range prev {
		if j <= k {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= m; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > n {
			hi = n
		}
		if lo > hi {
			return k + 1
		}
		if i <= k {
			cur[0] = i
		} else {
			cur[0] = inf
		}
		if lo > 1 {
			cur[lo-1] = inf
		}
		if hi < n {
			cur[hi+1] = inf
		}
		ai := a[i-1]
		for j := lo; j <= hi; j++ {
			d := inf
			if prev[j] < inf {
				d = prev[j] + 1 // delete a[i-1]
			}
			if cur[j-1] < inf && cur[j-1]+1 < d {
				d = cur[j-1] + 1 // insert b[j-1]
			}
			if prev[j-1] < inf {
				sub := prev[j-1]
				if ai != b[j-1] {
					sub++
				}
				if sub < d {
					d = sub
				}
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	if prev[n] > k {
		return k + 1
	}
	return prev[n]
}
