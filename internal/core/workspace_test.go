package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestPrunedMatchesReferenceRandom is the deterministic companion of
// FuzzPrunedMatchesReference: random and adversarial pairs across alphabet
// sizes and length skews, all required to be bit-identical to the seed
// algorithm (distance compared with ==, decomposition field by field).
func TestPrunedMatchesReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	alphabets := [][]rune{[]rune("a"), []rune("ab"), []rune("acgt"), []rune("abcdefgh")}
	for i := 0; i < 1500; i++ {
		alpha := alphabets[i%len(alphabets)]
		x := randomString(r, 24, alpha)
		y := randomString(r, 24, alpha)
		assertMatchesReference(t, x, y)
	}
}

func TestPrunedMatchesReferenceAdversarial(t *testing.T) {
	cases := [][2]string{
		{"", ""},
		{"", "a"},
		{"a", ""},
		{"", "aaaaaaaaaaaaaaaaaaaa"},
		{"aaaaaaaaaaaaaaaaaaaa", ""},
		{"a", "b"},
		{"ababa", "baab"},
		{"abababababababab", "babababababababa"},        // all substitutions vs shifts
		{"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"},        // maximally dissimilar, equal length
		{"aaaaaaaaaaaaaaaaaaaaaaaa", "b"},               // extreme length skew
		{"abcdefghijklmnop", "abcdefghijklmnop"},        // identical
		{"abcdefghijklmnop", "ponmlkjihgfedcba"},        // reversal
		{"aabbccddeeffgghh", "hhggffeeddccbbaa"},        // reversal with runs
		{"xyxyxyxyxyxyxyxyxyxy", "yxyxyxyxyxyxyxyxyxn"}, // near-shift plus a tail edit
	}
	for _, c := range cases {
		assertMatchesReference(t, []rune(c[0]), []rune(c[1]))
	}
}

func assertMatchesReference(t *testing.T, x, y []rune) {
	t.Helper()
	got := Compute(x, y)
	want := computeReference(x, y)
	want.Exact = true
	if got != want {
		t.Fatalf("pruned kernel diverged for %q %q:\n got %+v\nwant %+v", string(x), string(y), got, want)
	}
}

// TestWorkspaceReuse drives one workspace through wildly varying problem
// sizes to verify the buffers carry no state between calls.
func TestWorkspaceReuse(t *testing.T) {
	w := NewWorkspace()
	r := rand.New(rand.NewSource(102))
	alpha := []rune("abc")
	for i := 0; i < 400; i++ {
		maxLen := []int{30, 2, 18, 0, 7}[i%5]
		x := randomString(r, maxLen, alpha)
		y := randomString(r, maxLen, alpha)
		got := w.Compute(x, y)
		want := computeReference(x, y)
		want.Exact = true
		if got != want {
			t.Fatalf("reused workspace diverged for %q %q:\n got %+v\nwant %+v", string(x), string(y), got, want)
		}
		if hgot, hwant := w.HeuristicCompute(x, y), HeuristicCompute(x, y); hgot != hwant {
			t.Fatalf("workspace heuristic diverged for %q %q: %+v vs %+v", string(x), string(y), hgot, hwant)
		}
	}
}

// TestDistanceBoundedProperties checks the ComputeBounded contract over
// random pairs and cutoffs: exactness whenever dC <= cutoff, bit-identical
// exact values, and bail values strictly above the cutoff that still upper-
// bound the true distance.
func TestDistanceBoundedProperties(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	alpha := []rune("abcd")
	for i := 0; i < 2000; i++ {
		x := randomString(r, 20, alpha)
		y := randomString(r, 20, alpha)
		want := computeReference(x, y).Distance
		var cutoff float64
		switch i % 4 {
		case 0:
			cutoff = r.Float64() * 2 // uniform over the value range
		case 1:
			cutoff = want // exactly at the distance
		case 2:
			cutoff = want * (0.5 + r.Float64()) // straddling the distance
		case 3:
			cutoff = -r.Float64() // below any distance
		}
		got, exact := DistanceBounded(x, y, cutoff)
		if exact {
			if got != want {
				t.Fatalf("exact DistanceBounded(%q,%q,%v) = %v, want %v", string(x), string(y), cutoff, got, want)
			}
		} else {
			if want <= cutoff {
				t.Fatalf("bailed although dC(%q,%q) = %v <= cutoff %v", string(x), string(y), want, cutoff)
			}
			if got <= cutoff {
				t.Fatalf("bail value %v at or below cutoff %v", got, cutoff)
			}
			if got < want-1e-12 {
				t.Fatalf("bail value %v below true distance %v", got, want)
			}
		}
		if want <= cutoff && !exact {
			t.Fatalf("dC <= cutoff must be exact: %q %q cutoff %v", string(x), string(y), cutoff)
		}
	}
}

// TestDistanceBoundedMetricAxioms verifies the metric axioms survive the
// banding and the cutoff machinery: symmetry and the triangle inequality
// hold for the values DistanceBounded reports as exact.
func TestDistanceBoundedMetricAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	alpha := []rune("ab")
	inf := math.Inf(1)
	for i := 0; i < 400; i++ {
		x := randomString(r, 10, alpha)
		y := randomString(r, 10, alpha)
		z := randomString(r, 10, alpha)
		dxy, e1 := DistanceBounded(x, y, inf)
		dyx, e2 := DistanceBounded(y, x, inf)
		dyz, _ := DistanceBounded(y, z, inf)
		dxz, _ := DistanceBounded(x, z, inf)
		if !e1 || !e2 {
			t.Fatal("infinite cutoff must be exact")
		}
		if !almostEqual(dxy, dyx) {
			t.Fatalf("asymmetric: %v vs %v for %q %q", dxy, dyx, string(x), string(y))
		}
		if dxz > dxy+dyz+eps {
			t.Fatalf("triangle violated: d(%q,%q)=%v > %v", string(x), string(z), dxz, dxy+dyz)
		}
		if string(x) == string(y) && dxy != 0 {
			t.Fatalf("identity failed for %q", string(x))
		}
	}
}

// TestKBandNeverPrunesTheWinner checks the band bound directly: for every
// pair, the reference argmin edit length lies inside the band derived from
// the heuristic upper bound.
func TestKBandNeverPrunesTheWinner(t *testing.T) {
	r := rand.New(rand.NewSource(105))
	alpha := []rune("abc")
	for i := 0; i < 1000; i++ {
		x := randomString(r, 16, alpha)
		y := randomString(r, 16, alpha)
		if len(x) == 0 && len(y) == 0 {
			continue
		}
		ref := computeReference(x, y)
		h := HeuristicCompute(x, y)
		kmax := kBand(harmonicPrefix(len(x)+len(y)), len(x), len(y), h.Distance, h.K)
		if ref.K > kmax {
			t.Fatalf("band [dE=%d, kmax=%d] excludes the winning k=%d for %q %q",
				h.K, kmax, ref.K, string(x), string(y))
		}
	}
}

// TestKBandDegenerateBounds exercises the clamping paths of kBand.
func TestKBandDegenerateBounds(t *testing.T) {
	h7, h2000, h20 := harmonicPrefix(7), harmonicPrefix(2000), harmonicPrefix(20)
	if got := kBand(h7, 3, 4, math.Inf(1), 1); got != 7 {
		t.Errorf("infinite bound: kmax = %d, want 7", got)
	}
	if got := kBand(h7, 3, 4, math.NaN(), 1); got != 7 {
		t.Errorf("NaN bound must disable pruning: kmax = %d, want 7", got)
	}
	if got := kBand(h7, 3, 4, -1, 2); got != 2 {
		t.Errorf("negative bound must clamp to dE: kmax = %d, want 2", got)
	}
	if got := kBand(h7, 3, 4, math.Inf(-1), 1); got != 1 {
		t.Errorf("-Inf bound must clamp to dE: kmax = %d, want 1", got)
	}
	if got := kBand(h2000, 1000, 1000, 2-1e-16, 1); got != 2000 {
		t.Errorf("bound at the old asymptote must not overflow: kmax = %d, want 2000", got)
	}
	if got := kBand(h20, 10, 10, 3, 2); got != 20 {
		t.Errorf("bound above 2 prunes nothing: kmax = %d, want 20", got)
	}
}

// TestPathLowerBoundIsLemma1Minimum pins pathLowerBound to its definition:
// for every m, n ≤ 40 and every feasible edit length k, it equals, to the
// bit, the minimum over the insertion count ni of the Lemma 1 cost summed
// the way the reference algorithm sums a candidate.
func TestPathLowerBoundIsLemma1Minimum(t *testing.T) {
	const maxLen = 40
	h := harmonicPrefix(2 * maxLen)
	for m := 0; m <= maxLen; m++ {
		for n := 0; n <= maxLen; n++ {
			gap := m - n
			if gap < 0 {
				gap = -gap
			}
			for k := gap; k <= m+n; k++ {
				best := math.Inf(1)
				for ni := 0; ni <= k; ni++ {
					nd := m - n + ni
					ns := k - ni - nd
					if nd < 0 || ns < 0 {
						continue
					}
					d := h[m+ni] - h[m] + h[n+nd] - h[n]
					if ns > 0 {
						d += float64(ns) / float64(m+ni)
					}
					best = min(best, d)
				}
				if got := pathLowerBound(h, m, n, k); got != best {
					t.Fatalf("pathLowerBound(%d, %d, %d) = %v, brute-force minimum %v", m, n, k, got, best)
				}
			}
		}
	}
}

// TestUpperBoundFromTable pins the ladder's table lookup to UpperBound,
// bit for bit, for every m, n ≤ 40.
func TestUpperBoundFromTable(t *testing.T) {
	h := harmonicPrefix(80)
	for m := 0; m <= 40; m++ {
		for n := 0; n <= 40; n++ {
			if got, want := upperBound(h, m, n), UpperBound(m, n); got != want {
				t.Fatalf("upperBound(%d, %d) = %v, UpperBound = %v", m, n, got, want)
			}
		}
	}
}

func BenchmarkComputeBounded120(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	x := randomString(r, 120, []rune("acgt"))
	y := randomString(r, 120, []rune("acgt"))
	// A tight cutoff, as a searcher with a good best-so-far would pass.
	cutoff := Distance(x, y) * 0.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistanceBounded(x, y, cutoff)
	}
}

// TestPoolRecyclesOnPanic pins the hardening of the package-level entry
// points: workspaces round-trip through the pool via defer, so a panic
// escaping a kernel neither leaks the workspace nor poisons the pool — the
// recycled workspace must keep producing bit-identical results. The panic
// is injected through withWorkspace itself, the seam every entry point
// goes through.
func TestPoolRecyclesOnPanic(t *testing.T) {
	x, y := []rune("contextual"), []rune("normalised")
	want := computeReference(x, y)
	want.Exact = true

	// Dirty a workspace mid-"evaluation", then panic out of the scope.
	for i := 0; i < 8; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected the injected panic to propagate")
				}
			}()
			withWorkspace(func(w *Workspace) struct{} {
				w.HeuristicCompute(x, y) // touch the heuristic row
				w.harmonic(64)           // grow the harmonic table
				panic("kernel panic injected by test")
			})
		}()
	}

	// The pool must still hand out workspaces that compute exact results,
	// through every package-level entry point.
	for i := 0; i < 32; i++ {
		if got := Compute(x, y); got != want {
			t.Fatalf("Compute after panic diverged: %+v vs %+v", got, want)
		}
		if d, exact := DistanceBounded(x, y, 2); !exact || d != want.Distance {
			t.Fatalf("DistanceBounded after panic: (%v, %v)", d, exact)
		}
		if h := Heuristic(x, y); h < want.Distance-1e-12 {
			t.Fatalf("Heuristic after panic below exact: %v < %v", h, want.Distance)
		}
	}
}
