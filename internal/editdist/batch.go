package editdist

// This file implements the multi-candidate bounded Myers engine: one query
// advanced against several candidate texts per pass. Two costs amortise
// across the batch. The query's pattern-equality table is built once per
// batch instead of once per candidate (for short strings the table work
// rivals the scan itself), and the per-candidate column states — the
// pv/mv words and the running score — live in small struct-of-arrays
// registers interleaved across batchLanes candidates, so the inner loop is
// straight-line word arithmetic with independent dependency chains the CPU
// can overlap (the block-filtering batching of Vaillant's dictionary
// engine, applied to Myers' scheme).
//
// The kernel fixes the *query* as the pattern for every lane, where the
// scalar engine picks the shorter string of each pair. Both orientations
// resolve the same value — the bounded contract is "dE if dE ≤ k, else
// k+1", and Myers' scan is exact for either orientation — so batch results
// are value-identical to per-candidate scalar calls, which FuzzMyersBatch
// pins for every candidate and every k.

// batchLanes is the struct-of-arrays width of the multi-candidate kernel:
// enough independent dependency chains to keep the scalar ALUs busy, few
// enough that every lane's state stays in registers.
const batchLanes = 4

// MyersBoundedBatch resolves the bounded edit distance of q against every
// candidate: out[i] = MyersBounded(q, cands[i], ks[i]) — dE(q, cands[i])
// when it is at most ks[i], and ks[i]+1 otherwise. out is reused when it
// has the right length and allocated otherwise; the filled slice is
// returned. ks must have one bound per candidate.
//
// Queries of 1–64 symbols over the direct-index alphabet (all of Latin-1)
// run the struct-of-arrays kernel with the pattern table built once for
// the whole batch; other queries fall back to the scalar engine per
// candidate, value-identical either way. Steady-state calls on a reused
// Scratch allocate nothing beyond the caller's out slice.
func (s *Scratch) MyersBoundedBatch(q []rune, cands [][]rune, ks []int, out []int) []int {
	if len(ks) != len(cands) {
		panic("editdist: MyersBoundedBatch needs one bound per candidate")
	}
	if len(out) != len(cands) {
		out = make([]int, len(cands))
	}
	n := len(q)
	narrow := n >= 1 && n <= 64
	if narrow {
		for _, c := range q {
			if c >= peqSymbols {
				narrow = false
				break
			}
		}
	}
	if !narrow {
		// Wide or long (or empty) queries: the scalar engine per candidate.
		// Its own scratch tables are pattern-cached, so a repeated
		// orientation still skips rebuilds.
		for i, cand := range cands {
			out[i] = s.MyersBounded(q, cand, ks[i])
		}
		return out
	}
	peq := s.prepNarrow(q)
	last := uint64(1) << uint(n-1)
	for lo := 0; lo < len(cands); lo += batchLanes {
		hi := lo + batchLanes
		if hi > len(cands) {
			hi = len(cands)
		}
		s.myersLanes(peq, n, last, cands[lo:hi], ks[lo:hi], out[lo:hi])
	}
	return out
}

// myersLanes advances up to batchLanes candidates in lockstep against the
// prepared pattern table. Each lane mirrors the scalar myersNarrow loop —
// same step kernel, same early exit — with the lane states interleaved so
// one pass over the text positions drives every live candidate.
func (s *Scratch) myersLanes(peq []uint64, n int, last uint64, cands [][]rune, ks []int, out []int) {
	var (
		pv, mv [batchLanes]uint64
		score  [batchLanes]int
		texts  [batchLanes][]rune
		bound  [batchLanes]int
		live   [batchLanes]bool
	)
	active := 0
	for l, cand := range cands {
		k := ks[l]
		gap := len(cand) - n
		if gap < 0 {
			gap = -gap
		}
		switch {
		case k < 0:
			out[l] = 0 // any distance exceeds a negative bound; 0 is > k
		case gap > k:
			out[l] = k + 1 // the length gap alone exceeds the bound
		case len(cand) == 0:
			out[l] = n // dE(q, "") = |q| = gap <= k here
		default:
			pv[l] = ^uint64(0)
			mv[l] = 0
			score[l] = n
			texts[l] = cand
			bound[l] = k
			live[l] = true
			active++
		}
	}
	for i := 0; active > 0; i++ {
		for l := 0; l < batchLanes; l++ {
			if !live[l] {
				continue
			}
			t := texts[l]
			c := t[i]
			var eq uint64
			if c < peqSymbols {
				eq = peq[c] // text symbols outside the table match no position
			}
			pv[l], mv[l], score[l] = myersStep(eq, pv[l], mv[l], score[l], last)
			// The final score can drop by at most one per remaining symbol.
			switch rem := len(t) - i - 1; {
			case score[l]-rem > bound[l]:
				out[l] = bound[l] + 1
				live[l] = false
				active--
			case rem == 0:
				out[l] = score[l] // the early exit guarantees score <= k here
				live[l] = false
				active--
			}
		}
	}
}
