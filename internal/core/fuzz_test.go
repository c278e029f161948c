package core

import (
	"math"
	"math/rand"
	"testing"

	"ced/internal/dataset"
	"ced/internal/editdist"
)

// FuzzPrunedMatchesReference is the differential fuzz for the banded,
// pooled kernel: Compute must be *bit-identical* — distance compared with
// ==, not a tolerance — to computeReference, the unpruned seed algorithm,
// on every input. The band only removes edit lengths whose analytic best
// case already exceeds the k = dE candidate that both kernels evaluate, so
// the float computations that remain are literally the same operations in
// the same order.
func FuzzPrunedMatchesReference(f *testing.F) {
	f.Add("ababa", "baab")
	f.Add("", "abc")
	f.Add("abc", "")
	f.Add("ñandú", "nandu")
	f.Add("aaaaaaaaaa", "a")
	f.Add("abcabcabcabc", "cbacbacba")
	f.Fuzz(func(t *testing.T, sx, sy string) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 48 || len(y) > 48 {
			t.Skip()
		}
		got := Compute(x, y)
		want := computeReference(x, y)
		want.Exact = true
		if got != want {
			t.Fatalf("pruned kernel diverged for %q %q:\n got %+v\nwant %+v", sx, sy, got, want)
		}
	})
}

// FuzzDistanceBounded asserts the DistanceBounded contract against the
// seed algorithm: when the kernel claims exactness the value is
// bit-identical to the reference; when it bails, the reference distance
// really is above the cutoff and the returned value is an upper bound that
// never dips to the cutoff or below.
func FuzzDistanceBounded(f *testing.F) {
	f.Add("ababa", "baab", 0.5)
	f.Add("ababa", "baab", 0.6)
	f.Add("", "abc", 0.0)
	f.Add("abcdef", "xyz", -1.0)
	f.Add("aaaa", "aaaa", 0.25)
	f.Fuzz(func(t *testing.T, sx, sy string, cutoff float64) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 48 || len(y) > 48 || math.IsNaN(cutoff) {
			t.Skip()
		}
		want := computeReference(x, y).Distance
		got, exact := DistanceBounded(x, y, cutoff)
		switch {
		case exact:
			if got != want {
				t.Fatalf("exact DistanceBounded(%q,%q,%v) = %v, want %v", sx, sy, cutoff, got, want)
			}
		default:
			if want <= cutoff {
				t.Fatalf("bailed on %q %q although dC = %v <= cutoff %v", sx, sy, want, cutoff)
			}
			if got <= cutoff {
				t.Fatalf("bail value %v at or below cutoff %v for %q %q", got, cutoff, sx, sy)
			}
			if got < want-1e-12 {
				t.Fatalf("bail value %v below the true distance %v for %q %q", got, want, sx, sy)
			}
		}
		if exact2, ok := DistanceBounded(x, y, math.Inf(1)); !ok || exact2 != want {
			t.Fatalf("DistanceBounded(+Inf) = (%v, %v), want (%v, true)", exact2, ok, want)
		}
	})
}

// FuzzLadderInvariants pins the chain of bounds the staged ladder rests on:
// for every pair, each rung's lower bound is at most the next rung's, every
// lower bound is at most the exact dC of the reference algorithm, and the
// heuristic dC,h and the closed-form UpperBound cap it from above:
//
//	lb(||x|−|y||)  <=  lb(dE)  <=  dC  <=  dC,h  <=  UpperBound(|x|, |y|)
//
// with lb = pathLowerBound, the Lemma 1 minimum. lb itself must be monotone
// in k and never below the cruder 2k/(|x|+|y|+k). A rung rejecting against
// a cutoff between its bound and dC is therefore always sound, and bounded
// Myers feeding the edit rung must agree with the unbounded engine whenever
// definite.
func FuzzLadderInvariants(f *testing.F) {
	f.Add("ababa", "baab", 0.5)
	f.Add("", "abc", 0.0)
	f.Add("ñandú", "nandu", 0.3)
	f.Add("aaaaaaaaaa", "a", 1.5)
	f.Fuzz(func(t *testing.T, sx, sy string, cutoff float64) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 40 || len(y) > 40 || math.IsNaN(cutoff) {
			t.Skip()
		}
		m, n := len(x), len(y)
		if m == 0 && n == 0 {
			t.Skip()
		}
		gap := m - n
		if gap < 0 {
			gap = -gap
		}
		h := harmonicPrefix(m + n)
		for k := gap; k <= m+n; k++ {
			lb := pathLowerBound(h, m, n, k)
			if crude := 2 * float64(k) / float64(m+n+k); lb < crude-1e-12 {
				t.Fatalf("lb(%d) = %v below 2k/(m+n+k) = %v for m=%d n=%d", k, lb, crude, m, n)
			}
			if k > gap {
				if prev := pathLowerBound(h, m, n, k-1); lb < prev {
					t.Fatalf("lb not monotone for m=%d n=%d: lb(%d) = %v < lb(%d) = %v", m, n, k, lb, k-1, prev)
				}
			}
		}
		de := editdist.Distance(x, y)
		exact := computeReference(x, y)
		heur := Heuristic(x, y)
		lbGap, lbDe := pathLowerBound(h, m, n, gap), pathLowerBound(h, m, n, de)
		if lbGap > lbDe {
			t.Fatalf("length bound %v above edit bound %v for %q %q", lbGap, lbDe, sx, sy)
		}
		if lbDe > exact.Distance {
			t.Fatalf("edit bound %v above exact dC %v for %q %q", lbDe, exact.Distance, sx, sy)
		}
		if exact.Distance > heur+1e-12 {
			t.Fatalf("exact dC %v above dC,h %v for %q %q", exact.Distance, heur, sx, sy)
		}
		if heur > UpperBound(m, n)+1e-12 {
			t.Fatalf("dC,h %v above UpperBound %v for %q %q", heur, UpperBound(m, n), sx, sy)
		}
		// The heuristic always evaluates the minimal edit length — exactly
		// dE, the value the ladder's edit rung resolves. (The *optimal*
		// path's K may exceed dE: extra insertions can be cheaper.)
		if h := HeuristicCompute(x, y); h.K != de {
			t.Fatalf("heuristic edit length %d != dE %d for %q %q", h.K, de, sx, sy)
		}

		// The staged kernel must honour the DistanceBounded contract and
		// report a rung consistent with its decision.
		w := NewWorkspace()
		res, ok, stage := w.ComputeBoundedStaged(x, y, cutoff)
		if stage > StageExact {
			t.Fatalf("unknown stage %d", stage)
		}
		if ok {
			if res.Distance != exact.Distance {
				t.Fatalf("exact staged result %v != reference %v for %q %q", res.Distance, exact.Distance, sx, sy)
			}
			if stage < StageHeuristic {
				t.Fatalf("exact result attributed to rejection-only rung %v", stage)
			}
		} else {
			if exact.Distance <= cutoff {
				t.Fatalf("staged kernel bailed although dC = %v <= cutoff %v", exact.Distance, cutoff)
			}
			if res.Distance <= cutoff || res.Distance < exact.Distance-1e-12 {
				t.Fatalf("bail value %v violates contract (cutoff %v, dC %v)", res.Distance, cutoff, exact.Distance)
			}
			// A rejection claims its rung's bound cleared the cutoff; check
			// the claim against the bound recomputed here.
			switch stage {
			case StageLength:
				if lbGap <= cutoff {
					t.Fatalf("length-stage rejection but bound %v <= cutoff %v", lbGap, cutoff)
				}
			case StageEdit:
				if lbDe <= cutoff {
					t.Fatalf("edit-stage rejection but bound %v <= cutoff %v", lbDe, cutoff)
				}
			}
		}
	})
}

// checkEditBracket requires EditBracket's ends to hold the computed values
// they bound, with no tolerance: lo ≤ Distance and HeuristicCompute ≤ hi.
// A searcher that skips a candidate on lo > τ, or trusts hi as a distance
// no larger than the heuristic's, relies on exactly these comparisons.
func checkEditBracket(t *testing.T, x, y []rune) {
	t.Helper()
	lo, hi := EditBracket(x, y)
	if d := Distance(x, y); !(lo <= d) {
		t.Fatalf("bracket low end %v above dC %v for %q %q", lo, d, string(x), string(y))
	}
	if d := Heuristic(x, y); !(d <= hi) {
		t.Fatalf("bracket high end %v below dC,h %v for %q %q", hi, d, string(x), string(y))
	}
}

// TestEditBracket checks the bracket over random pairs on alphabets of one
// to eight symbols, lengths up to 60, and over every pair of forty digit
// contours.
func TestEditBracket(t *testing.T) {
	r := rand.New(rand.NewSource(907))
	alphabet := []rune("abcdefgh")
	for i := 0; i < 4000; i++ {
		alpha := alphabet[:1+i%len(alphabet)]
		checkEditBracket(t, randomString(r, 60, alpha), randomString(r, 60, alpha))
	}
	contours := dataset.Digits(dataset.DigitsConfig{Count: 40, Grid: 32}, 3).Runes()
	for i, x := range contours {
		for _, y := range contours[i:] {
			checkEditBracket(t, x, y)
		}
	}
}

// FuzzEditBracket is the fuzzed form of TestEditBracket.
func FuzzEditBracket(f *testing.F) {
	f.Add("ababa", "baab")
	f.Add("", "abc")
	f.Add("a", "b")
	f.Add("ñandú", "nandu")
	f.Add("aaaaaaaaaa", "a")
	f.Fuzz(func(t *testing.T, sx, sy string) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 64 || len(y) > 64 {
			t.Skip()
		}
		checkEditBracket(t, x, y)
	})
}

// FuzzBandKernels runs the Stage 3 band sweep on fuzzed pairs at every
// band width from |m−n| to m+n+3 and demands cell-identical final bands
// against the full-band sweep, also on the suffix distances of a fuzzed
// heuristic band, a reference-identical result from the full band, and
// the windowed kernel's result at every window (see
// checkBandKernelsAgree).
func FuzzBandKernels(f *testing.F) {
	f.Add("ababa", "baab", 3)
	f.Add("abcabcabcabc", "cbacbacba", 8)
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaa", "b", 0)
	f.Fuzz(func(t *testing.T, sx, sy string, band int) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 32 || len(y) > 32 {
			t.Skip()
		}
		checkBandKernelsAgree(t, x, y, band)
	})
}

func FuzzHeuristicUpperBound(f *testing.F) {
	f.Add("ababa", "baab")
	f.Add("", "abc")
	f.Add("ñandú", "nandu")
	f.Fuzz(func(t *testing.T, sx, sy string) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 40 || len(y) > 40 {
			t.Skip()
		}
		exact := Distance(x, y)
		heur := Heuristic(x, y)
		if heur < exact-1e-12 {
			t.Fatalf("dC,h %v < dC %v for %q %q", heur, exact, sx, sy)
		}
		if exact < 0 {
			t.Fatalf("negative distance %v", exact)
		}
		if sx == sy && exact != 0 {
			t.Fatalf("identity failed for %q", sx)
		}
		if sx != sy && exact == 0 {
			t.Fatalf("separation failed for %q %q", sx, sy)
		}
		if ub := UpperBound(len(x), len(y)); exact > ub+1e-12 {
			t.Fatalf("distance %v above upper bound %v", exact, ub)
		}
	})
}

func FuzzComputeSymmetry(f *testing.F) {
	f.Add("ab", "ba")
	f.Add("aaa", "")
	f.Fuzz(func(t *testing.T, sx, sy string) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 30 || len(y) > 30 {
			t.Skip()
		}
		if d1, d2 := Distance(x, y), Distance(y, x); !almostEqual(d1, d2) {
			t.Fatalf("asymmetric: %v vs %v for %q %q", d1, d2, sx, sy)
		}
	})
}

func FuzzTraceConsistent(f *testing.F) {
	f.Add("ababa", "baab")
	f.Add("", "ab")
	f.Fuzz(func(t *testing.T, sx, sy string) {
		x, y := []rune(sx), []rune(sy)
		if len(x) > 20 || len(y) > 20 {
			t.Skip()
		}
		tr, err := Trace(x, y)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, s := range tr.Steps {
			sum += s.Cost
		}
		if !almostEqual(sum, tr.Distance) {
			t.Fatalf("steps sum %v != distance %v", sum, tr.Distance)
		}
		if !almostEqual(tr.Distance, Distance(x, y)) {
			t.Fatalf("trace distance %v != compute %v", tr.Distance, Distance(x, y))
		}
	})
}
