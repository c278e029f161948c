package core

import (
	"math/rand"
	"slices"
	"testing"
)

// heuristicReference is the §4.1 dC,h program run forward on two rows, a
// reference independent of the backward packed-key kernel: each cell
// carries (kmin, ni), the Levenshtein distance of the prefixes and the most
// insertions over minimum-operation internal paths, ties broken toward
// more insertions. It allocates per call and shares no code with the
// kernel but the closing formula.
func heuristicReference(x, y []rune) Result {
	m, n := len(x), len(y)
	kr := make([]int32, n+1) // kmin for the current row
	ir := make([]int32, n+1) // max insertions at kmin
	for j := 0; j <= n; j++ {
		kr[j] = int32(j)
		ir[j] = int32(j)
	}
	for i := 1; i <= m; i++ {
		diagK, diagI := kr[0], ir[0]
		kr[0] = int32(i)
		ir[0] = 0
		xi := x[i-1]
		for j := 1; j <= n; j++ {
			upK, upI := kr[j], ir[j]
			var bk, bi int32
			if xi == y[j-1] {
				bk, bi = diagK, diagI // cost-0 match
			} else {
				bk, bi = diagK+1, diagI // substitution
			}
			if k := upK + 1; k < bk || (k == bk && upI > bi) {
				bk, bi = k, upI // deletion of x[i-1]
			}
			if k := kr[j-1] + 1; k < bk || (k == bk && ir[j-1]+1 > bi) {
				bk, bi = k, ir[j-1]+1 // insertion of y[j-1]
			}
			kr[j], ir[j] = bk, bi
			diagK, diagI = upK, upI
		}
	}
	k, ni := int(kr[n]), int(ir[n])
	nd := m - n + ni
	ns := k - ni - nd
	h := harmonicPrefix(m + ni)
	d := h[m+ni] - h[m] + h[n+nd] - h[n]
	if ns > 0 {
		d += float64(ns) / float64(m+ni)
	}
	return Result{
		Distance:      d,
		K:             k,
		Insertions:    ni,
		Substitutions: ns,
		Deletions:     nd,
	}
}

// suffixEditsReference returns the suffix edit distances dE(x[i:], y[j:])
// for every cell, row-major with stride |y|+1, from one reverse
// Wagner–Fischer pass.
func suffixEditsReference(x, y []rune) []int32 {
	m, n := len(x), len(y)
	stride := n + 1
	suf := make([]int32, (m+1)*stride)
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
	return suf
}

// checkHeuristicMatchesReference runs the backward kernel both ways on w —
// recording the suffix matrix under a band of K operations, K clamped to
// [dE, |x|+|y|], and on its one scratch row — and requires each Result to
// equal heuristicReference's (compared with ==). In the recorded matrix
// every tube cell, whose prefix and suffix edit distances sum to at most
// K, must hold suffixEditsReference's value, and every cell within K+2
// operations (the band and one diagonal past each side, which the band
// sweep may read) no less. The matrix is pre-filled with garbage, so a
// cell the kernel skips shows.
func checkHeuristicMatchesReference(t *testing.T, w *Workspace, x, y []rune, band int) {
	t.Helper()
	m, n := len(x), len(y)
	want := heuristicReference(x, y)
	band = min(max(band, want.K), m+n)
	wantSuf := suffixEditsReference(x, y)
	// The prefix distances dE(x[:i], y[:j]) are the reversed strings'
	// suffix distances at (m−i, n−j).
	pre := suffixEditsReference(reversed(x), reversed(y))
	suf := make([]int32, len(wantSuf))
	for i := range suf {
		suf[i] = -7
	}
	if got := w.heuristic(x, y, suf, band); got != want {
		t.Fatalf("recording heuristic (band %d) diverged for %q %q:\n got %+v\nwant %+v", band, string(x), string(y), got, want)
	}
	stride := n + 1
	for i := 0; i <= m; i++ {
		for j := 0; j <= n; j++ {
			c := i*stride + j
			p, s := int(pre[(m-i)*stride+n-j]), int(wantSuf[c])
			d := i - j
			switch {
			case p+s <= band && suf[c] != wantSuf[c]:
				t.Fatalf("band %d: tube suffix distance at (%d, %d) for %q %q: got %d, want %d",
					band, i, j, string(x), string(y), suf[c], wantSuf[c])
			case abs(d)+abs(m-n-d) <= band+2 && suf[c] < wantSuf[c]:
				t.Fatalf("band %d: suffix distance at (%d, %d) for %q %q: got %d, below %d",
					band, i, j, string(x), string(y), suf[c], wantSuf[c])
			}
		}
	}
	if got := w.HeuristicCompute(x, y); got != want {
		t.Fatalf("HeuristicCompute diverged for %q %q:\n got %+v\nwant %+v", string(x), string(y), got, want)
	}
}

func reversed(s []rune) []rune {
	r := slices.Clone(s)
	slices.Reverse(r)
	return r
}

func abs(v int) int { return max(v, -v) }

// TestHeuristicMatchesReference is the deterministic companion of
// FuzzHeuristicMatchesReference, on one reused workspace across sizes and
// bands: the whole grid, then a random band.
func TestHeuristicMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	alphabets := [][]rune{[]rune("a"), []rune("ab"), []rune("acgt"), []rune("abcdefgh")}
	var w Workspace
	for i := 0; i < 1500; i++ {
		alpha := alphabets[i%len(alphabets)]
		maxLen := []int{30, 3, 48, 0, 12}[i%5]
		x, y := randomString(r, maxLen, alpha), randomString(r, maxLen, alpha)
		checkHeuristicMatchesReference(t, &w, x, y, len(x)+len(y))
		checkHeuristicMatchesReference(t, &w, x, y, r.Intn(len(x)+len(y)+1))
	}
}

// FuzzHeuristicMatchesReference is the differential fuzz for the §4.1
// kernel: the backward packed-key program under any band must return
// heuristicReference's Result and record suffixEditsReference's suffix
// distances on the tube (see checkHeuristicMatchesReference).
func FuzzHeuristicMatchesReference(f *testing.F) {
	f.Add("ababa", "baab", 9)
	f.Add("", "abc", 0)
	f.Add("abc", "", 1)
	f.Add("ñandú", "nandu", 2)
	f.Add("abcabcabcabc", "cbacbacba", 5)
	f.Fuzz(func(t *testing.T, sx, sy string, band int) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 64 || len(y) > 64 {
			t.Skip()
		}
		var w Workspace
		checkHeuristicMatchesReference(t, &w, x, y, band)
	})
}
