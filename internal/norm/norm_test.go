package norm

import (
	"math"
	"math/rand"
	"testing"

	"ced/internal/editdist"
)

const eps = 1e-12

func r(s string) []rune { return []rune(s) }

func randomString(rng *rand.Rand, maxLen int, alphabet []rune) []rune {
	n := rng.Intn(maxLen + 1)
	s := make([]rune, n)
	for i := range s {
		s[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return s
}

// --- The paper's §2.2 counterexamples, verbatim. ---

func TestSumTriangleCounterexample(t *testing.T) {
	// x=ab, y=aba, z=ba: dsum(ab,aba)+dsum(aba,ba) = 1/5+1/5 < dsum(ab,ba) = 2/4.
	x, y, z := r("ab"), r("aba"), r("ba")
	if got := Sum(x, y); math.Abs(got-0.2) > eps {
		t.Errorf("dsum(ab,aba) = %v, want 1/5", got)
	}
	if got := Sum(y, z); math.Abs(got-0.2) > eps {
		t.Errorf("dsum(aba,ba) = %v, want 1/5", got)
	}
	if got := Sum(x, z); math.Abs(got-0.5) > eps {
		t.Errorf("dsum(ab,ba) = %v, want 2/4", got)
	}
	if Sum(x, z) <= Sum(x, y)+Sum(y, z) {
		t.Error("expected dsum to violate the triangle inequality on the paper's example")
	}
}

func TestMaxTriangleCounterexample(t *testing.T) {
	// Same strings: dmax(ab,aba)=1/3, dmax(aba,ba)=1/3, dmax(ab,ba)=1.
	x, y, z := r("ab"), r("aba"), r("ba")
	if Max(x, z) <= Max(x, y)+Max(y, z) {
		t.Error("expected dmax to violate the triangle inequality on the paper's example")
	}
}

func TestMinTriangleCounterexample(t *testing.T) {
	// x=b, y=ba, z=aa: dmin(b,ba)=1, dmin(ba,aa)=1/2, dmin(b,aa)=2.
	x, y, z := r("b"), r("ba"), r("aa")
	if got := Min(x, y); math.Abs(got-1) > eps {
		t.Errorf("dmin(b,ba) = %v, want 1", got)
	}
	if got := Min(y, z); math.Abs(got-0.5) > eps {
		t.Errorf("dmin(ba,aa) = %v, want 1/2", got)
	}
	if got := Min(x, z); math.Abs(got-2) > eps {
		t.Errorf("dmin(b,aa) = %v, want 2", got)
	}
	if Min(x, z) <= Min(x, y)+Min(y, z) {
		t.Error("expected dmin to violate the triangle inequality on the paper's example")
	}
}

// --- Basic values and edge cases. ---

func TestEmptyStringCases(t *testing.T) {
	if Sum(nil, nil) != 0 || Max(nil, nil) != 0 || Min(nil, nil) != 0 ||
		YujianBo(nil, nil) != 0 || MarzalVidal(nil, nil) != 0 {
		t.Error("distance of empty pair should be 0 for all normalisations")
	}
	if !math.IsInf(Min(nil, r("a")), 1) {
		t.Error("dmin with one empty string should be +Inf")
	}
	if got := Max(nil, r("abc")); math.Abs(got-1) > eps {
		t.Errorf("dmax(λ,abc) = %v, want 1", got)
	}
	if got := YujianBo(nil, r("abc")); math.Abs(got-1) > eps {
		t.Errorf("dYB(λ,abc) = %v, want 1 (2·3/(3+3))", got)
	}
	if got := MarzalVidal(nil, r("abc")); math.Abs(got-1) > eps {
		t.Errorf("dMV(λ,abc) = %v, want 1", got)
	}
}

func TestYujianBoKnownValues(t *testing.T) {
	// dE(ab, ba) = 2: dYB = 2*2/(2+2+2) = 2/3.
	if got := YujianBo(r("ab"), r("ba")); math.Abs(got-2.0/3) > eps {
		t.Errorf("dYB(ab,ba) = %v, want 2/3", got)
	}
	if got := YujianBo(r("abc"), r("abc")); got != 0 {
		t.Errorf("dYB identical = %v, want 0", got)
	}
	// Rewritten form from the paper: dYB = 2 - 2(|x|+|y|)/(|x|+|y|+dE).
	x, y := r("abcd"), r("bcda")
	d := float64(editdist.Distance(x, y))
	want := 2 - 2*float64(len(x)+len(y))/(float64(len(x)+len(y))+d)
	if got := YujianBo(x, y); math.Abs(got-want) > eps {
		t.Errorf("dYB rewritten form mismatch: %v vs %v", got, want)
	}
}

// TestYujianBoIsMetric checks the metric axioms — symmetry, identity,
// separation and the triangle inequality, with eps slack — on random binary
// and ternary strings for the two normalised distances proven to be
// metrics: dYB (Yujian and Bo, TPAMI 2007) and dMV under the unit costs
// MarzalVidal uses (Fisman, Grogin and Margalit, arXiv:2201.06115).
func TestYujianBoIsMetric(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    func(x, y []rune) float64
	}{
		{"dYB", YujianBo},
		{"dMV", MarzalVidal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, alpha := range [][]rune{[]rune("ab"), []rune("abc")} {
				rng := rand.New(rand.NewSource(20))
				for i := 0; i < 400; i++ {
					x := randomString(rng, 8, alpha)
					y := randomString(rng, 8, alpha)
					z := randomString(rng, 8, alpha)
					dxy, dyz, dxz := tc.d(x, y), tc.d(y, z), tc.d(x, z)
					if math.Abs(dxy-tc.d(y, x)) > eps {
						t.Fatalf("%s not symmetric on %q %q", tc.name, string(x), string(y))
					}
					if dxz > dxy+dyz+eps {
						t.Fatalf("%s triangle violated on %q %q %q", tc.name, string(x), string(y), string(z))
					}
					if string(x) == string(y) && dxy != 0 {
						t.Fatalf("%s identity failed on %q", tc.name, string(x))
					}
					if string(x) != string(y) && dxy == 0 {
						t.Fatalf("%s separation failed on %q %q", tc.name, string(x), string(y))
					}
				}
			}
		})
	}
}

func TestMarzalVidalKnownValues(t *testing.T) {
	// ab -> aba: best path has weight 1 (one insertion) over length 3
	// (two matches + one insertion): 1/3.
	if got := MarzalVidal(r("ab"), r("aba")); math.Abs(got-1.0/3) > eps {
		t.Errorf("dMV(ab,aba) = %v, want 1/3", got)
	}
	// Identical strings: 0.
	if got := MarzalVidal(r("abc"), r("abc")); got != 0 {
		t.Errorf("dMV identical = %v, want 0", got)
	}
	// Completely different same-length strings: substitutions all the way:
	// weight n over length n = 1... but a longer path could lower the ratio?
	// For aa->bb: subs path 2/2=1; del+ins path weight 4 length 4 = 1; mixed
	// longer paths can do better: e.g. length 3: one del, one ins, one sub:
	// weight 3/3 = 1. So dMV(aa,bb)=1.
	if got := MarzalVidal(r("aa"), r("bb")); math.Abs(got-1) > eps {
		t.Errorf("dMV(aa,bb) = %v, want 1", got)
	}
}

func TestMarzalVidalRatioNeverAboveOne(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alpha := []rune("abc")
	for i := 0; i < 300; i++ {
		x := randomString(rng, 10, alpha)
		y := randomString(rng, 10, alpha)
		got := MarzalVidal(x, y)
		if got < -eps || got > 1+eps {
			t.Fatalf("dMV(%q,%q) = %v out of [0,1]", string(x), string(y), got)
		}
	}
}

func TestMarzalVidalUpperBoundedByMax(t *testing.T) {
	// dMV <= dmax: the minimal-operation path has length <= max(m,n) steps?
	// No — its length is at least max(m,n), so w/l <= dE/max(m,n) = dmax.
	// (Any minimum-weight path of weight dE has length >= max(m,n), hence
	// ratio <= dmax; dMV minimises over even more paths.)
	rng := rand.New(rand.NewSource(22))
	alpha := []rune("ab")
	for i := 0; i < 300; i++ {
		x := randomString(rng, 10, alpha)
		y := randomString(rng, 10, alpha)
		if MarzalVidal(x, y) > Max(x, y)+eps {
			t.Fatalf("dMV > dmax for %q %q", string(x), string(y))
		}
	}
}

func TestMarzalVidalSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alpha := []rune("abc")
	for i := 0; i < 200; i++ {
		x := randomString(rng, 10, alpha)
		y := randomString(rng, 10, alpha)
		if d1, d2 := MarzalVidal(x, y), MarzalVidal(y, x); math.Abs(d1-d2) > eps {
			t.Fatalf("dMV asymmetric for %q %q: %v vs %v", string(x), string(y), d1, d2)
		}
	}
}

func TestMarzalVidalGeneralisedCosts(t *testing.T) {
	// With substitutions costing 3 and indels 1, the best aa->bb path avoids
	// substitutions: delete twice, insert twice: weight 4, length 4 -> 1.
	// The substitution path: weight 6, length 2 -> 3. A mixed path of length
	// 3 (sub+del+ins): weight 5 -> 5/3. So dMV = 1.
	w := editdist.Weights{SubCost: 3, DelCost: 1, InsCost: 1}
	if got := MarzalVidalCosts(r("aa"), r("bb"), w); math.Abs(got-1) > eps {
		t.Errorf("generalised dMV(aa,bb) = %v, want 1", got)
	}
}

func TestNormalisedDistancesOrdering(t *testing.T) {
	// For any pair: dsum <= dmax <= dmin (when defined), and dYB in [0,1].
	rng := rand.New(rand.NewSource(24))
	alpha := []rune("ab")
	for i := 0; i < 300; i++ {
		x := randomString(rng, 10, alpha)
		y := randomString(rng, 10, alpha)
		if len(x) == 0 || len(y) == 0 {
			continue
		}
		if Sum(x, y) > Max(x, y)+eps {
			t.Fatalf("dsum > dmax for %q %q", string(x), string(y))
		}
		if Max(x, y) > Min(x, y)+eps {
			t.Fatalf("dmax > dmin for %q %q", string(x), string(y))
		}
		if yb := YujianBo(x, y); yb < -eps || yb > 1+eps {
			t.Fatalf("dYB out of range for %q %q: %v", string(x), string(y), yb)
		}
	}
}

func TestSumHalfOfYujianBoRelationship(t *testing.T) {
	// dYB = 2 dE/(|x|+|y|+dE) and dsum = dE/(|x|+|y|): dYB >= dsum always
	// (since |x|+|y|+dE <= 2(|x|+|y|)).
	rng := rand.New(rand.NewSource(25))
	alpha := []rune("abc")
	for i := 0; i < 300; i++ {
		x := randomString(rng, 10, alpha)
		y := randomString(rng, 10, alpha)
		if len(x) == 0 && len(y) == 0 {
			continue
		}
		if YujianBo(x, y) < Sum(x, y)-eps {
			t.Fatalf("dYB < dsum for %q %q", string(x), string(y))
		}
	}
}
