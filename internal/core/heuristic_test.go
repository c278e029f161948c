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
// recording the suffix matrix and on its one scratch row — and requires
// each Result to equal heuristicReference's (compared with ==) and the
// recorded matrix to equal suffixEditsReference's, cell by cell. The
// matrix is pre-filled with garbage, so a cell the kernel skips shows.
func checkHeuristicMatchesReference(t *testing.T, w *Workspace, x, y []rune) {
	t.Helper()
	want := heuristicReference(x, y)
	wantSuf := suffixEditsReference(x, y)
	suf := make([]int32, len(wantSuf))
	for i := range suf {
		suf[i] = -7
	}
	if got := w.heuristic(x, y, suf); got != want {
		t.Fatalf("recording heuristic diverged for %q %q:\n got %+v\nwant %+v", string(x), string(y), got, want)
	}
	if !slices.Equal(suf, wantSuf) {
		stride := len(y) + 1
		for c := range suf {
			if suf[c] != wantSuf[c] {
				t.Fatalf("suffix distance at (%d, %d) for %q %q: got %d, want %d",
					c/stride, c%stride, string(x), string(y), suf[c], wantSuf[c])
			}
		}
	}
	if got := w.HeuristicCompute(x, y); got != want {
		t.Fatalf("HeuristicCompute diverged for %q %q:\n got %+v\nwant %+v", string(x), string(y), got, want)
	}
}

// TestHeuristicMatchesReference is the deterministic companion of
// FuzzHeuristicMatchesReference, on one reused workspace across sizes.
func TestHeuristicMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	alphabets := [][]rune{[]rune("a"), []rune("ab"), []rune("acgt"), []rune("abcdefgh")}
	var w Workspace
	for i := 0; i < 1500; i++ {
		alpha := alphabets[i%len(alphabets)]
		maxLen := []int{30, 3, 48, 0, 12}[i%5]
		checkHeuristicMatchesReference(t, &w, randomString(r, maxLen, alpha), randomString(r, maxLen, alpha))
	}
}

// FuzzHeuristicMatchesReference is the differential fuzz for the §4.1
// kernel: the backward packed-key program must return heuristicReference's
// Result and record suffixEditsReference's suffix distances (see
// checkHeuristicMatchesReference).
func FuzzHeuristicMatchesReference(f *testing.F) {
	f.Add("ababa", "baab")
	f.Add("", "abc")
	f.Add("abc", "")
	f.Add("ñandú", "nandu")
	f.Add("abcabcabcabc", "cbacbacba")
	f.Fuzz(func(t *testing.T, sx, sy string) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 64 || len(y) > 64 {
			t.Skip()
		}
		var w Workspace
		checkHeuristicMatchesReference(t, &w, x, y)
	})
}
