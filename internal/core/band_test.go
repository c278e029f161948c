package core

import (
	"math/rand"
	"testing"
)

// checkBandKernelsAgree pins the Stage 3 kernel against itself and the
// unpruned reference:
//
//   - banding is a restriction: for every kmax in [|m−n|, m+n+3], the
//     banded sweep's final band on [|m−n|, min(kmax, m+n)] equals the
//     full-band sweep's, cell for cell;
//   - the full band through finishBand equals computeReference, compared
//     with ==, not a tolerance.
func checkBandKernelsAgree(t *testing.T, x, y []rune) {
	t.Helper()
	m, n := len(x), len(y)
	gap := m - n
	if gap < 0 {
		gap = -gap
	}
	var fullPrev, fullCur []int32
	full := bandSweep(x, y, m+n, &fullPrev, &fullCur)

	var w Workspace
	got := w.finishBand(m, n, m+n, gap, full)
	want := computeReference(x, y)
	want.Exact = false
	if got != want {
		t.Fatalf("full band + finishBand diverged from reference for %q %q:\n got %+v\nwant %+v",
			string(x), string(y), got, want)
	}

	// One pair of buffers across every kmax, so stale cells left by a wider
	// band are in play when a narrower one runs.
	var prev, cur []int32
	for kmax := gap; kmax <= m+n+3; kmax++ {
		banded := bandSweep(x, y, kmax, &prev, &cur)
		for k := gap; k <= min(kmax, m+n); k++ {
			if banded[k] != full[k] {
				t.Fatalf("band kmax=%d diverged from the full band for %q %q at k=%d: %d != %d",
					kmax, string(x), string(y), k, banded[k], full[k])
			}
		}
	}
}

// TestBandKernelsAgree drives the band checks over random pairs on small
// and large alphabets.
func TestBandKernelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	alphabets := [][]rune{[]rune("a"), []rune("ab"), []rune("acgt"), []rune("abcdefgh")}
	for i := 0; i < 300; i++ {
		alpha := alphabets[i%len(alphabets)]
		checkBandKernelsAgree(t, randomString(r, 24, alpha), randomString(r, 24, alpha))
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
		checkBandKernelsAgree(t, []rune(c[0]), []rune(c[1]))
	}
}
