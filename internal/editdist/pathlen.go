package editdist

import "math"

// WeightsByPathLength returns a slice w of length len(a)+len(b)+1 where w[L]
// is the minimum total weight, under the cost model c, over alignment paths
// from a to b consisting of exactly L elementary steps. A step is one
// diagonal move (match or substitution — matches count as a step of weight
// c.Sub(x,x) = 0), one vertical move (deletion) or one horizontal move
// (insertion). Infeasible lengths hold +Inf.
//
// A path to cell (i, j) with d diagonal moves has i+j−d steps, and d ranges
// over [0, min(i, j)], so the cell holds exactly the lengths
// [max(i, j), i+j]: every L from max(len(a), len(b)) (0 when both strings
// are empty) to len(a)+len(b) is feasible, and no other. This is the engine
// of the exact Marzal-Vidal normalised edit distance: dMV = min over L >= 1
// of w[L]/L.
//
// It runs in O(len(a)·len(b)·min(len(a), len(b))) time and
// O(len(b)·(len(a)+len(b))) space.
func WeightsByPathLength(a, b []rune, c Costs) []float64 {
	m, n := len(a), len(b)
	maxL := m + n
	width := maxL + 1
	inf := math.Inf(1)

	// Each cell writes its lengths [max(i, j), i+j] and +Inf just outside
	// them, and reads its neighbours only there: the planes need no other
	// initialisation.
	prev := make([]float64, (n+1)*width)
	cur := make([]float64, (n+1)*width)
	fence := func(row []float64, lo, hi int) {
		if lo > 0 {
			row[lo-1] = inf
		}
		if hi < maxL {
			row[hi+1] = inf
		}
	}
	// Row i=0: only insertions; exactly j steps to reach column j.
	acc := 0.0
	for j := 0; j <= n; j++ {
		if j > 0 {
			acc += c.Ins(b[j-1])
		}
		row := prev[j*width : (j+1)*width]
		row[j] = acc
		fence(row, j, j)
	}
	delAcc := 0.0
	for i := 1; i <= m; i++ {
		delAcc += c.Del(a[i-1])
		cur[i] = delAcc // column 0: i deletions in i steps
		fence(cur[:width], i, i)
		for j := 1; j <= n; j++ {
			row := cur[j*width : (j+1)*width]
			diag := prev[(j-1)*width : j*width]
			up := prev[j*width : (j+1)*width]
			left := cur[(j-1)*width : j*width]
			subCost := c.Sub(a[i-1], b[j-1])
			delCost := c.Del(a[i-1])
			insCost := c.Ins(b[j-1])
			lo, hi := max(i, j), i+j
			for L := lo; L <= hi; L++ {
				best := diag[L-1] + subCost
				if v := up[L-1] + delCost; v < best {
					best = v
				}
				if v := left[L-1] + insCost; v < best {
					best = v
				}
				row[L] = best
			}
			fence(row, lo, hi)
		}
		prev, cur = cur, prev
	}
	out := make([]float64, width)
	final := prev[n*width : (n+1)*width]
	lo := max(m, n)
	for L := range out {
		out[L] = inf
	}
	copy(out[lo:], final[lo:])
	return out
}
