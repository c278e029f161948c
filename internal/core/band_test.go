package core

import (
	"math/rand"
	"testing"

	"ced/internal/editdist"
)

// checkBandKernelsAgree pins the Stage 3 kernel against itself and the
// unpruned reference:
//
//   - banding is a restriction: for every kmax in [|m−n|, m+n+3], the
//     banded sweep's final band on [|m−n|, min(kmax, m+n)] equals the
//     full-band sweep's, cell for cell, on reused scratch planes and
//     prefix rows (so a kmax below dE leaves an empty band);
//   - the full band holds the sentinel below dE, where no path exists;
//   - the full band through finishBand equals computeReference, compared
//     with ==, not a tolerance;
//   - for every window in [0, m+n], ComputeWindowed equals the full band
//     through finishBand at kmax = min(dE + window, m+n), compared with ==,
//     and it claims Exact only where that result is Compute's;
//   - at kmax ≤ K the sweep finds the same final band on the suffix
//     distances the heuristic records under a band of K operations, K
//     clamped to [dE, m+n], over a matrix whose other cells hold garbage.
func checkBandKernelsAgree(t *testing.T, x, y []rune, band int) {
	t.Helper()
	m, n := len(x), len(y)
	gap := m - n
	if gap < 0 {
		gap = -gap
	}
	de := editdist.Distance(x, y)
	suf := suffixEditsReference(x, y)
	band = min(max(band, de), m+n)
	sufBand := make([]int32, len(suf))
	for i := range sufBand {
		sufBand[i] = -7
	}
	var rec Workspace
	rec.heuristic(x, y, sufBand, band)
	var fresh Workspace
	full := fresh.bandSweep(x, y, suf, m+n)
	for k := 0; k < de; k++ {
		if full[k] != 0 {
			t.Fatalf("full band holds %d at k=%d below dE=%d for %q %q", full[k], k, de, string(x), string(y))
		}
	}

	var w Workspace
	got := w.finishBand(m, n, m+n, gap, full)
	want := computeReference(x, y)
	want.Exact = false
	if got != want {
		t.Fatalf("full band + finishBand diverged from reference for %q %q:\n got %+v\nwant %+v",
			string(x), string(y), got, want)
	}

	// One workspace across every kmax, widest first, so stale cells left by
	// a wider band are in play when a narrower one runs. From K down the
	// sweep reads the banded heuristic's suffix distances.
	for kmax := m + n + 3; kmax >= gap; kmax-- {
		s := suf
		if kmax <= band {
			s = sufBand
		}
		banded := w.bandSweep(x, y, s, kmax)
		for k := gap; k <= min(kmax, m+n); k++ {
			if banded[k] != full[k] {
				t.Fatalf("band kmax=%d (heuristic band %d) diverged from the full band for %q %q at k=%d: %d != %d",
					kmax, band, string(x), string(y), k, banded[k], full[k])
			}
		}
	}

	exact := w.Compute(x, y)
	exact.Exact = false
	for window := 0; window <= m+n; window++ {
		got := w.ComputeWindowed(x, y, window)
		claimed := got.Exact
		got.Exact = false
		if want := w.finishBand(m, n, min(de+window, m+n), gap, full); got != want {
			t.Fatalf("window %d diverged from the full band for %q %q:\n got %+v\nwant %+v",
				window, string(x), string(y), got, want)
		}
		if claimed && got != exact {
			t.Fatalf("window %d claims Exact for %q %q but %+v != Compute's %+v",
				window, string(x), string(y), got, exact)
		}
	}
}

// TestBandKernelsAgree drives the band checks over random pairs on small
// and large alphabets, each under a random heuristic band.
func TestBandKernelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	alphabets := [][]rune{[]rune("a"), []rune("ab"), []rune("acgt"), []rune("abcdefgh")}
	for i := 0; i < 300; i++ {
		alpha := alphabets[i%len(alphabets)]
		x, y := randomString(r, 24, alpha), randomString(r, 24, alpha)
		checkBandKernelsAgree(t, x, y, r.Intn(len(x)+len(y)+1))
	}
}

func TestBandKernelsAgreeAdversarial(t *testing.T) {
	cases := [][2]string{
		{"", "a"},
		{"a", ""},
		{"", "aaaaaaaaaaaaaaaaaaaa"},
		{"abababababababab", "babababababababa"},
		{"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"},
		{"aaaaaaaaaaaaaaaaaaaaaaaa", "b"},
		{"abcdefghijklmnop", "abcdefghijklmnop"},
		{"abcdefghijklmnop", "ponmlkjihgfedcba"},
	}
	for _, c := range cases {
		x, y := []rune(c[0]), []rune(c[1])
		checkBandKernelsAgree(t, x, y, 0)
		checkBandKernelsAgree(t, x, y, len(x)+len(y))
	}
}
