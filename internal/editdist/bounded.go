package editdist

// This file implements the cutoff-inverted bounded engines behind the staged
// query ladder (internal/core): callers turn a normalised-distance cutoff
// into a maximum useful edit length k and ask only whether the distance is
// at most k — the bounded-evaluation idea of Fisman et al. (arXiv:2201.06115)
// applied to the Levenshtein lower bound of the contextual distance.
//
// MyersBounded is the bit-parallel Myers kernel (Myers 1999, in Hyyrö's
// formulation: each column of the dynamic-programming matrix advances in
// O(1) word operations) with the bound folded in as an early exit: after i
// text symbols the running score is D(pattern, text[:i]), and the final
// distance is at least score − (remaining text symbols), so a scan whose
// score outruns the bound stops without finishing the text. Patterns longer
// than a machine word run the blocked formulation (Myers 1999; Hyyrö
// 2003): ⌈n/64⌉ vertical blocks per text symbol with the horizontal delta
// carried between blocks, still O(⌈n/64⌉·m) word operations — the property that keeps the ladder's edit
// stage far cheaper than the quadratic heuristic it short-circuits, even on
// contour-length strings. Symbols are direct-indexed up to Latin-1 (the
// Spanish corpus's ñ and accented vowels included); patterns with wider
// symbols fall back to a reusable map table (single block) or the Ukkonen
// band (blocked sizes), both off the hot path for every corpus in this
// repository.
//
// The Scratch type carries the reusable buffers (pattern tables, block
// states, banded rows) so hot callers — the contextual distance workspace
// runs one bounded edit distance per candidate — stay allocation-free at
// steady state.

// peqSymbols is the direct-index pattern-table width: all of Latin-1, so
// every generated corpus (Spanish ñ/á/é/í/ó/ú included) avoids map lookups.
const peqSymbols = 256

// Scratch holds reusable buffers for the bounded engines. The zero value is
// ready to use; buffers grow to the largest problem seen. A Scratch is not
// safe for concurrent use — keep one per goroutine (core.Workspace embeds
// one; the metric layer pools them).
type Scratch struct {
	peq        map[rune]uint64 // pattern-equality table for wide-symbol patterns
	mapSyms    []rune          // the pattern peq was built for (rebuild skipped when unchanged)
	narrowPeq  []uint64        // single-word pattern table, peqSymbols entries
	narrowSyms []rune          // the pattern whose entries narrowPeq holds (and the cache key)
	blockPeq   []uint64        // blocked pattern table: symbol c's blocks at [c·B, c·B+B)
	blockSyms  []rune          // the pattern whose rows blockPeq holds (the cache key)
	blockOff   int             // block count the non-zero rows were written at
	bpv, bmv   []uint64        // blocked vertical delta state, one word per block
	prev, cur  []int           // rolling rows of the banded fallback
}

// runesEqual reports whether a and b hold the same symbols — the
// same-pattern check behind the table caches, cheap against the cost of a
// rebuild (a mismatch bails at the first differing symbol).
func runesEqual(a, b []rune) bool {
	if len(a) != len(b) {
		return false
	}
	for i, c := range a {
		if c != b[i] {
			return false
		}
	}
	return true
}

// MyersBounded returns the Levenshtein distance between a and b if it is at
// most k, and k+1 otherwise, on the bit-parallel engine with an early exit:
// MyersBounded(a, b, k) <= k exactly when Distance(a, b) <= k, and at
// k >= max(len(a), len(b)) it is Distance(a, b). This entry point builds
// its tables from scratch per call; hot callers hold a Scratch and use its
// method, which is allocation-free at steady state.
func MyersBounded(a, b []rune, k int) int {
	var s Scratch
	return s.MyersBounded(a, b, k)
}

// MyersBounded is the scratch-threaded form of the package-level
// MyersBounded, reusing the receiver's buffers across calls.
func (s *Scratch) MyersBounded(a, b []rune, k int) int {
	if k < 0 {
		return 0 // any distance exceeds a negative bound; 0 is > k
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	m, n := len(a), len(b) // a is the text (longer), b the pattern
	if m-n > k {
		return k + 1 // the length gap alone exceeds the bound
	}
	if n == 0 {
		return m // m = gap <= k here
	}
	narrow := true
	for _, c := range b {
		if c >= peqSymbols {
			narrow = false
			break
		}
	}
	switch {
	case n <= 64 && narrow:
		return s.myersNarrow(b, a, k)
	case n <= 64:
		return s.myersMap(b, a, k)
	case narrow:
		return s.myersBlocked(b, a, k)
	default:
		return s.banded(a, b, k)
	}
}

// myersNarrow is the bounded single-word scan with a direct-indexed
// pattern table (pattern symbols < peqSymbols). The step logic lives in
// myersStep, and the table is scratch-resident with only the previous
// pattern's entries re-zeroed, so the per-candidate fixed cost is
// O(pattern), not O(peqSymbols).
func (s *Scratch) myersNarrow(pattern, text []rune, k int) int {
	peq := s.prepNarrow(pattern)
	m, n := len(text), len(pattern)
	pv := ^uint64(0)
	mv := uint64(0)
	score := n
	last := uint64(1) << uint(n-1)
	for i, c := range text {
		var eq uint64
		if c < peqSymbols {
			eq = peq[c] // text symbols outside the table match no position
		}
		pv, mv, score = myersStep(eq, pv, mv, score, last)
		// The final score can drop by at most one per remaining text symbol.
		if score-(m-i-1) > k {
			return k + 1
		}
	}
	return score // the early exit guarantees score <= k here
}

// prepNarrow returns the direct-index pattern table for pattern, building
// it on the scratch's reusable buffer. The table is cached keyed on the
// pattern itself: a repeated pattern — every call of a batch, the pivot of
// a LAESA row, consecutive evaluations of one query — skips both the
// re-zeroing and the rebuild, so the per-call fixed cost drops to a symbol
// comparison. A fresh pattern re-zeroes only the previous pattern's
// entries, O(pattern), not O(peqSymbols).
func (s *Scratch) prepNarrow(pattern []rune) []uint64 {
	if s.narrowPeq == nil {
		s.narrowPeq = make([]uint64, peqSymbols)
	}
	peq := s.narrowPeq
	if runesEqual(s.narrowSyms, pattern) {
		return peq
	}
	for _, c := range s.narrowSyms {
		peq[c] = 0
	}
	for i, c := range pattern {
		peq[c] |= 1 << uint(i)
	}
	s.narrowSyms = append(s.narrowSyms[:0], pattern...)
	return peq
}

// prepMap returns the map-backed pattern table for wide-symbol patterns,
// reusing the scratch's map across calls: the same pattern skips the
// rebuild entirely (the cache key is the pattern, like prepNarrow's), and a
// fresh one clears and refills the existing map — no allocation either way
// at steady state.
func (s *Scratch) prepMap(pattern []rune) map[rune]uint64 {
	if s.peq == nil {
		s.peq = make(map[rune]uint64, len(pattern))
	}
	if runesEqual(s.mapSyms, pattern) {
		return s.peq
	}
	clear(s.peq)
	for i, c := range pattern {
		s.peq[c] |= 1 << uint(i)
	}
	s.mapSyms = append(s.mapSyms[:0], pattern...)
	return s.peq
}

// myersMap is the bounded single-word scan for patterns with symbols beyond
// the direct-index table, using the scratch's reusable map (myersStep is
// the shared kernel).
func (s *Scratch) myersMap(pattern, text []rune, k int) int {
	peq := s.prepMap(pattern)
	m, n := len(text), len(pattern)
	pv := ^uint64(0)
	mv := uint64(0)
	score := n
	last := uint64(1) << uint(n-1)
	for i, c := range text {
		pv, mv, score = myersStep(peq[c], pv, mv, score, last)
		if score-(m-i-1) > k {
			return k + 1
		}
	}
	return score
}

// myersStep advances the bit-parallel column state by one text symbol.
func myersStep(eq, pv, mv uint64, score int, last uint64) (uint64, uint64, int) {
	xv := eq | mv
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	if ph&last != 0 {
		score++
	}
	if mh&last != 0 {
		score--
	}
	ph = ph<<1 | 1
	mh <<= 1
	pv = mh | ^(xv | ph)
	mv = ph & xv
	return pv, mv, score
}

// myersBlockStep advances one vertical block by one text symbol. hin is the
// incoming horizontal delta from the block below (+1 at the top boundary:
// the first DP row is D[0][j] = j); the returned delta feeds the block
// above, and the last block's delta is the score change. last selects the
// block's top pattern bit.
//
// It generalises the single-word myersStep by threading the horizontal
// carry it hard-codes: an incoming −1 acts like a match at the block's
// lowest position for the horizontal computation (but not for Xv, which
// must see the raw pattern matches), and the shifted-in boundary bit
// follows the sign of hin instead of always being a +1.
func myersBlockStep(eq, pv, mv uint64, hin int, last uint64) (uint64, uint64, int) {
	xv := eq | mv
	if hin < 0 {
		eq |= 1
	}
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	hout := 0
	if ph&last != 0 {
		hout++
	}
	if mh&last != 0 {
		hout--
	}
	ph <<= 1
	mh <<= 1
	if hin > 0 {
		ph |= 1
	} else if hin < 0 {
		mh |= 1
	}
	pv = mh | ^(xv | ph)
	mv = ph & xv
	return pv, mv, hout
}

// prepBlocked returns the blocked pattern table for pattern at the given
// block count, cached like prepNarrow: an unchanged pattern at an unchanged
// block count returns the resident table untouched. Otherwise it re-zeroes
// exactly the rows the previous pattern dirtied, at the block count they
// were written with (a different count shifts every offset), restoring the
// all-zero invariant the scan relies on — any symbol the text reads that is
// not in this pattern must see an all-zero row — and refills the table.
func (s *Scratch) prepBlocked(pattern []rune, blocks int) []uint64 {
	need := peqSymbols * blocks
	if cap(s.blockPeq) < need {
		s.blockPeq = make([]uint64, need) // fresh allocations come back zeroed
		s.blockSyms = s.blockSyms[:0]
	} else {
		if s.blockOff == blocks && runesEqual(s.blockSyms, pattern) {
			return s.blockPeq[:need]
		}
		whole := s.blockPeq[:cap(s.blockPeq)]
		for _, c := range s.blockSyms {
			row := whole[int(c)*s.blockOff : int(c)*s.blockOff+s.blockOff]
			for b := range row {
				row[b] = 0
			}
		}
	}
	peq := s.blockPeq[:need]
	for i, c := range pattern {
		peq[int(c)*blocks+(i>>6)] |= 1 << uint(i&63)
	}
	s.blockSyms = append(s.blockSyms[:0], pattern...)
	s.blockOff = blocks
	return peq
}

// myersBlocked is the bounded multi-word scan for direct-indexable patterns
// longer than a machine word: ⌈n/64⌉ blocks along the pattern, horizontal
// deltas carried between blocks, the running score tracked at the last
// block's top pattern bit. The unused high bits of the final block never
// reach that bit (addition carries only move upward), so no masking is
// needed.
func (s *Scratch) myersBlocked(pattern, text []rune, k int) int {
	m, n := len(text), len(pattern)
	blocks := (n + 63) >> 6
	peq := s.prepBlocked(pattern, blocks)
	if cap(s.bpv) < blocks {
		s.bpv = make([]uint64, blocks)
		s.bmv = make([]uint64, blocks)
	}
	pv, mv := s.bpv[:blocks], s.bmv[:blocks]
	for b := range pv {
		pv[b] = ^uint64(0)
		mv[b] = 0
	}
	score := n
	lastFinal := uint64(1) << uint((n-1)&63)
	const lastFull = uint64(1) << 63
	for i, c := range text {
		var base int
		indexed := c < peqSymbols
		if indexed {
			base = int(c) * blocks
		}
		hin := 1 // top boundary: D[0][j] − D[0][j−1] = +1
		for b := 0; b < blocks; b++ {
			var eq uint64
			if indexed {
				eq = peq[base+b]
			}
			last := lastFull
			if b == blocks-1 {
				last = lastFinal
			}
			pv[b], mv[b], hin = myersBlockStep(eq, pv[b], mv[b], hin, last)
		}
		score += hin
		if score-(m-i-1) > k {
			return k + 1
		}
	}
	return score
}

// banded is the Ukkonen fallback for wide-symbol patterns longer than a
// machine word, running bandedRows on the scratch's reusable rows. The
// caller has already normalised len(a) >= len(b) > 0 and
// k >= len(a)-len(b).
func (s *Scratch) banded(a, b []rune, k int) int {
	n := len(b)
	if cap(s.prev) < n+1 {
		s.prev = make([]int, n+1)
		s.cur = make([]int, n+1)
	}
	return bandedRows(a, b, k, s.prev[:n+1], s.cur[:n+1])
}
