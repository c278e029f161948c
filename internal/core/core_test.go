package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ced/internal/dataset"
	"ced/internal/editdist"
)

const eps = 1e-12

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= eps
}

func runesOf(s string) []rune { return []rune(s) }

func alphabetOf(xs ...[]rune) []rune {
	seen := map[rune]bool{}
	var out []rune
	for _, x := range xs {
		for _, r := range x {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

func randomString(r *rand.Rand, maxLen int, alphabet []rune) []rune {
	n := r.Intn(maxLen + 1)
	s := make([]rune, n)
	for i := range s {
		s[i] = alphabet[r.Intn(len(alphabet))]
	}
	return s
}

func TestDistanceKnownValues(t *testing.T) {
	cases := []struct {
		x, y string
		want float64
	}{
		{"", "", 0},
		{"a", "a", 0},
		{"abc", "abc", 0},
		// From the empty string: |y| insertions on growing strings: H(|y|).
		{"", "a", 1},
		{"", "ab", 1 + 0.5},
		{"abc", "", 1 + 0.5 + 1.0/3},
		// One substitution in a string of length 2.
		{"aa", "ba", 0.5},
		// One insertion into a string of length 2.
		{"ab", "aba", 1.0 / 3},
		{"aba", "ab", 1.0 / 3}, // one deletion from a string of length 3
		// Example 4 of the paper: dC(ababa, baab) = 8/15 (insert, then two
		// deletions, beating the naive 3-operation k=dE path).
		{"ababa", "baab", 8.0 / 15},
		// "ab" -> "ba": insert 'b' in front (1/3), delete the trailing 'b'
		// from the length-3 string (1/3): 2/3 beats two substitutions (1).
		{"ab", "ba", 2.0 / 3},
	}
	for _, c := range cases {
		got := Distance(runesOf(c.x), runesOf(c.y))
		if !almostEqual(got, c.want) {
			t.Errorf("dC(%q,%q) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestComputeDecomposition(t *testing.T) {
	// ababa -> baab: k=3 with 1 insertion, 0 substitutions, 2 deletions.
	res := Compute(runesOf("ababa"), runesOf("baab"))
	if !res.Exact {
		t.Error("Compute result not marked exact")
	}
	if res.K != 3 || res.Insertions != 1 || res.Substitutions != 0 || res.Deletions != 2 {
		t.Errorf("decomposition = %+v, want K=3 Ni=1 Ns=0 Nd=2", res)
	}
	if !almostEqual(res.Distance, 8.0/15) {
		t.Errorf("distance = %v, want 8/15", res.Distance)
	}
}

func TestDecompositionConsistency(t *testing.T) {
	// K = Ni+Ns+Nd, Nd-Ni = |x|-|y|, and the distance equals the closed
	// formula recomputed from the decomposition.
	r := rand.New(rand.NewSource(11))
	alpha := []rune("ab")
	for i := 0; i < 300; i++ {
		x := randomString(r, 10, alpha)
		y := randomString(r, 10, alpha)
		res := Compute(x, y)
		if res.K != res.Insertions+res.Substitutions+res.Deletions {
			t.Fatalf("K != Ni+Ns+Nd: %+v", res)
		}
		if res.Deletions-res.Insertions != len(x)-len(y) {
			t.Fatalf("Nd-Ni != |x|-|y|: %+v for %q %q", res, string(x), string(y))
		}
		m, n, ni, ns, nd := len(x), len(y), res.Insertions, res.Substitutions, res.Deletions
		d := Harmonic(m+ni) - Harmonic(m) + Harmonic(n+nd) - Harmonic(n)
		if ns > 0 {
			d += float64(ns) / float64(m+ni)
		}
		if !almostEqual(res.Distance, d) {
			t.Fatalf("formula mismatch: %v vs %v (%+v)", res.Distance, d, res)
		}
	}
}

func TestDistanceAgainstDijkstraOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle is exponential; skipping in -short mode")
	}
	r := rand.New(rand.NewSource(12))
	alpha := []rune("ab")
	for i := 0; i < 60; i++ {
		x := randomString(r, 4, alpha)
		y := randomString(r, 4, alpha)
		want := oracleDistance(x, y, alphabetOf(x, y, alpha))
		got := Distance(x, y)
		if !almostEqual(got, want) {
			t.Fatalf("dC(%q,%q) = %v, oracle = %v", string(x), string(y), got, want)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	alpha := []rune("abc")
	for i := 0; i < 300; i++ {
		x := randomString(r, 12, alpha)
		y := randomString(r, 12, alpha)
		if d1, d2 := Distance(x, y), Distance(y, x); !almostEqual(d1, d2) {
			t.Fatalf("dC(%q,%q)=%v != dC(%q,%q)=%v", string(x), string(y), d1, string(y), string(x), d2)
		}
	}
}

func TestDistanceIdentityAndSeparation(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	alpha := []rune("abc")
	for i := 0; i < 200; i++ {
		x := randomString(r, 12, alpha)
		y := randomString(r, 12, alpha)
		if Distance(x, x) != 0 {
			t.Fatalf("dC(x,x) != 0 for %q", string(x))
		}
		if string(x) != string(y) && Distance(x, y) <= 0 {
			t.Fatalf("dC(%q,%q) = %v, want > 0", string(x), string(y), Distance(x, y))
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	// Theorem 1: dC is a metric. The slack tolerance covers float rounding.
	r := rand.New(rand.NewSource(15))
	alpha := []rune("ab")
	for i := 0; i < 400; i++ {
		x := randomString(r, 8, alpha)
		y := randomString(r, 8, alpha)
		z := randomString(r, 8, alpha)
		dxy, dyz, dxz := Distance(x, y), Distance(y, z), Distance(x, z)
		if dxz > dxy+dyz+eps {
			t.Fatalf("triangle violated: d(%q,%q)=%v > d(%q,%q)+d(%q,%q)=%v",
				string(x), string(z), dxz, string(x), string(y), string(y), string(z), dxy+dyz)
		}
	}
}

func TestDistanceUpperBound(t *testing.T) {
	f := func(sx, sy string) bool {
		x, y := []rune(sx), []rune(sy)
		return Distance(x, y) <= UpperBound(len(x), len(y))+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHeuristicIsUpperBoundOfExact(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	alpha := []rune("ab")
	agree := 0
	total := 0
	for i := 0; i < 400; i++ {
		x := randomString(r, 10, alpha)
		y := randomString(r, 10, alpha)
		exact := Distance(x, y)
		heur := Heuristic(x, y)
		if heur < exact-eps {
			t.Fatalf("dC,h(%q,%q)=%v < dC=%v", string(x), string(y), heur, exact)
		}
		total++
		if almostEqual(heur, exact) {
			agree++
		}
	}
	// The paper reports ~90% agreement; random short strings over a binary
	// alphabet are adversarial, but agreement should still be substantial.
	if agree*2 < total {
		t.Errorf("heuristic agrees on only %d/%d pairs; expected a majority", agree, total)
	}
}

func TestHeuristicKIsLevenshtein(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	alpha := []rune("abc")
	for i := 0; i < 300; i++ {
		x := randomString(r, 12, alpha)
		y := randomString(r, 12, alpha)
		res := HeuristicCompute(x, y)
		if want := editdist.Distance(x, y); res.K != want {
			t.Fatalf("heuristic K = %d, want dE = %d for %q %q", res.K, want, string(x), string(y))
		}
		if res.Exact {
			t.Fatal("heuristic result marked exact")
		}
	}
}

func TestHeuristicSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	alpha := []rune("ab")
	for i := 0; i < 300; i++ {
		x := randomString(r, 12, alpha)
		y := randomString(r, 12, alpha)
		if d1, d2 := Heuristic(x, y), Heuristic(y, x); !almostEqual(d1, d2) {
			t.Fatalf("dC,h asymmetric: %v vs %v for %q %q", d1, d2, string(x), string(y))
		}
	}
}

func TestHeuristicKnownValues(t *testing.T) {
	// On ababa -> baab the heuristic evaluates k = dE = 3; the best
	// 3-operation decomposition has 1 insertion, giving the exact 8/15.
	if got := Heuristic(runesOf("ababa"), runesOf("baab")); !almostEqual(got, 8.0/15) {
		t.Errorf("dC,h(ababa,baab) = %v, want 8/15", got)
	}
	if got := Heuristic(nil, nil); got != 0 {
		t.Errorf("dC,h(\"\",\"\") = %v, want 0", got)
	}
	if got := Heuristic(runesOf("ab"), runesOf("ab")); got != 0 {
		t.Errorf("dC,h(ab,ab) = %v, want 0", got)
	}
}

func TestExactNeverExceedsSimpleNormalisations(t *testing.T) {
	// dC <= dE/|shorter|-ish bounds don't hold in general, but dC must never
	// exceed the cost of performing the dE operations pessimistically on the
	// shortest string involved: dE * 1/min(m,n)... that is not a theorem
	// either. What *is* guaranteed: dC <= dE (each operation costs at most 1,
	// on non-empty strings), provided max(m,n) >= 1.
	r := rand.New(rand.NewSource(19))
	alpha := []rune("ab")
	for i := 0; i < 300; i++ {
		x := randomString(r, 10, alpha)
		y := randomString(r, 10, alpha)
		if len(x) == 0 && len(y) == 0 {
			continue
		}
		if d, de := Distance(x, y), float64(editdist.Distance(x, y)); d > de+eps {
			t.Fatalf("dC(%q,%q)=%v > dE=%v", string(x), string(y), d, de)
		}
	}
}

func TestHarmonic(t *testing.T) {
	if Harmonic(0) != 0 {
		t.Error("H(0) != 0")
	}
	if !almostEqual(Harmonic(1), 1) {
		t.Error("H(1) != 1")
	}
	if !almostEqual(Harmonic(4), 1+0.5+1.0/3+0.25) {
		t.Error("H(4) wrong")
	}
	h := harmonicPrefix(10)
	for i := 0; i <= 10; i++ {
		if !almostEqual(h[i], Harmonic(i)) {
			t.Errorf("harmonicPrefix[%d] = %v, want %v", i, h[i], Harmonic(i))
		}
	}
}

func TestUpperBound(t *testing.T) {
	// UpperBound(0, n) = H(n): inserting n symbols into the empty string.
	if !almostEqual(UpperBound(0, 3), Harmonic(3)) {
		t.Errorf("UpperBound(0,3) = %v, want H(3)", UpperBound(0, 3))
	}
	if UpperBound(0, 0) != 0 {
		t.Error("UpperBound(0,0) != 0")
	}
	// Monotone in both arguments.
	if UpperBound(2, 3) >= UpperBound(3, 3)+1 {
		t.Error("UpperBound growing too fast")
	}
}

func TestOperationCost(t *testing.T) {
	if !almostEqual(OperationCost(OpInsert, 5), 1.0/6) {
		t.Error("insert cost wrong")
	}
	if !almostEqual(OperationCost(OpDelete, 5), 1.0/5) {
		t.Error("delete cost wrong")
	}
	if !almostEqual(OperationCost(OpSubstitute, 5), 1.0/5) {
		t.Error("substitute cost wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("OperationCost(OpDelete, 0) did not panic")
		}
	}()
	OperationCost(OpDelete, 0)
}

func TestOperationCostUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OperationCost(unknown) did not panic")
		}
	}()
	OperationCost(OpKind(99), 3)
}

func TestPaperExample4AlternativePath(t *testing.T) {
	// The paper's first path for Example 4 (two deletions then one
	// insertion) costs 1/5 + 1/4 + 1/4 = 7/10; the reported optimum via
	// insert-first ordering is 8/15 < 7/10. Verify both the bound and that
	// our exact distance picks the better one.
	d := Distance(runesOf("ababa"), runesOf("baab"))
	if d > 7.0/10+eps {
		t.Errorf("dC(ababa,baab) = %v, should be <= 7/10", d)
	}
	if !almostEqual(d, 8.0/15) {
		t.Errorf("dC(ababa,baab) = %v, want 8/15", d)
	}
}

func TestLongerStringsCheaperOperations(t *testing.T) {
	// The same single substitution costs less on longer strings: the essence
	// of contextual weighting.
	short := Distance(runesOf("ab"), runesOf("ac"))
	long := Distance(runesOf("aaaaaaaaab"), runesOf("aaaaaaaaac"))
	if short <= long {
		t.Errorf("substitution on short string (%v) should cost more than on long (%v)", short, long)
	}
	if !almostEqual(short, 0.5) || !almostEqual(long, 0.1) {
		t.Errorf("expected 1/2 and 1/10, got %v and %v", short, long)
	}
}

func BenchmarkComputeExact20(b *testing.B)  { benchCompute(b, 20) }
func BenchmarkComputeExact60(b *testing.B)  { benchCompute(b, 60) }
func BenchmarkComputeExact120(b *testing.B) { benchCompute(b, 120) }

func benchCompute(b *testing.B, n int) {
	r := rand.New(rand.NewSource(42))
	x := randomString(r, n, []rune("acgt"))
	y := randomString(r, n, []rune("acgt"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(x, y)
	}
}

// BenchmarkComputeExactContoursFar times an exact evaluation that reaches
// Stage 3: two digit contours of different classes (86 and 90 symbols,
// dE 44), far enough apart that the dC,h band stays open beyond dE, as
// it does for many of the complete evaluations of a 1-NN digits query.
func BenchmarkComputeExactContoursFar(b *testing.B) {
	rs := dataset.Digits(dataset.DigitsConfig{Count: 6, Grid: 32}, 1).Runes()
	x, y := rs[2], rs[5]
	h := HeuristicCompute(x, y)
	if kmax := kBand(harmonicPrefix(len(x)+len(y)), len(x), len(y), h.Distance, h.K); kmax <= h.K {
		b.Fatalf("band collapsed to dE = %d: the pair no longer reaches Stage 3", h.K)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(x, y)
	}
}

func BenchmarkHeuristic20(b *testing.B)  { benchHeuristic(b, 20) }
func BenchmarkHeuristic60(b *testing.B)  { benchHeuristic(b, 60) }
func BenchmarkHeuristic120(b *testing.B) { benchHeuristic(b, 120) }

func benchHeuristic(b *testing.B, n int) {
	r := rand.New(rand.NewSource(42))
	x := randomString(r, n, []rune("acgt"))
	y := randomString(r, n, []rune("acgt"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HeuristicCompute(x, y)
	}
}
