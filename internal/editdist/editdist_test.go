package editdist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is an independent recursive implementation with memoisation, used as
// an oracle for the optimised engines.
func naive(a, b []rune) int {
	memo := map[[2]int]int{}
	var rec func(i, j int) int
	rec = func(i, j int) int {
		if i == 0 {
			return j
		}
		if j == 0 {
			return i
		}
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		best := rec(i-1, j) + 1
		if v := rec(i, j-1) + 1; v < best {
			best = v
		}
		v := rec(i-1, j-1)
		if a[i-1] != b[j-1] {
			v++
		}
		if v < best {
			best = v
		}
		memo[key] = best
		return best
	}
	return rec(len(a), len(b))
}

func randomString(r *rand.Rand, maxLen int, alphabet []rune) []rune {
	n := r.Intn(maxLen + 1)
	s := make([]rune, n)
	for i := range s {
		s[i] = alphabet[r.Intn(len(alphabet))]
	}
	return s
}

var testAlphabet = []rune("ab")
var widerAlphabet = []rune("abcdñé")

func TestDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abaa", "aab", 2}, // Example 1 of the paper
		// Example 2 of the paper only shows dE(abaa,baab) <= 3; the exact
		// value is 2 (delete the leading 'a', append a 'b').
		{"abaa", "baab", 2},
		{"ab", "ba", 2},
		{"ab", "aba", 1},
		{"aba", "ba", 1},
		{"b", "ba", 1},
		{"b", "aa", 2},
		{"niño", "nino", 1}, // non-ASCII counts as one symbol
	}
	for _, c := range cases {
		if got := Distance([]rune(c.a), []rune(c.b)); got != c.want {
			t.Errorf("Distance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a := randomString(r, 12, testAlphabet)
		b := randomString(r, 12, testAlphabet)
		if got, want := Distance(a, b), naive(a, b); got != want {
			t.Fatalf("Distance(%q,%q) = %d, want %d", string(a), string(b), got, want)
		}
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := randomString(r, 10, widerAlphabet)
		b := randomString(r, 10, widerAlphabet)
		c := randomString(r, 10, widerAlphabet)
		dab, dba := Distance(a, b), Distance(b, a)
		if dab != dba {
			t.Fatalf("symmetry: d(%q,%q)=%d d(%q,%q)=%d", string(a), string(b), dab, string(b), string(a), dba)
		}
		if Distance(a, a) != 0 {
			t.Fatalf("identity: d(%q,%q) != 0", string(a), string(a))
		}
		if dab == 0 && string(a) != string(b) {
			t.Fatalf("separation: d(%q,%q)=0 for distinct strings", string(a), string(b))
		}
		if Distance(a, c) > dab+Distance(b, c) {
			t.Fatalf("triangle inequality violated for %q %q %q", string(a), string(b), string(c))
		}
	}
}

func TestDistanceBounds(t *testing.T) {
	// 0 <= d <= max(len(a), len(b)); |len(a)-len(b)| <= d.
	f := func(sa, sb string) bool {
		a, b := []rune(sa), []rune(sb)
		d := Distance(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The tests below pin the bounded contract of Scratch.MyersBounded, the
// production dE engine: the exact distance whenever it is at most k, and
// k+1 otherwise.

func TestBoundedAgreesWithDistance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var s Scratch
	for i := 0; i < 500; i++ {
		a := randomString(r, 14, testAlphabet)
		b := randomString(r, 14, testAlphabet)
		d := Distance(a, b)
		for k := 0; k <= 15; k++ {
			got := s.MyersBounded(a, b, k)
			if d <= k {
				if got != d {
					t.Fatalf("MyersBounded(%q,%q,%d) = %d, want exact %d", string(a), string(b), k, got, d)
				}
			} else if got != k+1 {
				t.Fatalf("MyersBounded(%q,%q,%d) = %d, want %d (distance %d)", string(a), string(b), k, got, k+1, d)
			}
		}
	}
}

func TestBoundedNegativeThreshold(t *testing.T) {
	if got := MyersBounded([]rune("a"), []rune("b"), -1); got != 0 {
		t.Errorf("MyersBounded with k<0 = %d, want 0", got)
	}
}

// exactMyers runs the bounded engine at a bound no distance exceeds.
func exactMyers(s *Scratch, a, b []rune) int {
	return s.MyersBounded(a, b, max(len(a), len(b)))
}

func TestMyersAgreesWithDistance(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var s Scratch
	for i := 0; i < 500; i++ {
		a := randomString(r, 20, widerAlphabet)
		b := randomString(r, 20, widerAlphabet)
		if got, want := exactMyers(&s, a, b), Distance(a, b); got != want {
			t.Fatalf("MyersBounded(%q,%q) = %d, want %d", string(a), string(b), got, want)
		}
	}
}

// TestMyersLongPatternFallback covers patterns longer than a machine word:
// the blocked engine for Latin-1 symbols and the Ukkonen band (bandedRows)
// for wider ones.
func TestMyersLongPatternFallback(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s Scratch
	for _, alphabet := range [][]rune{testAlphabet, []rune("ab日")} {
		for i := 0; i < 20; i++ {
			a := randomString(r, 150, alphabet)
			b := randomString(r, 150, alphabet)
			d := Distance(a, b)
			if got := exactMyers(&s, a, b); got != d {
				t.Fatalf("MyersBounded long = %d, want %d", got, d)
			}
			if d > 0 {
				if got := s.MyersBounded(a, b, d-1); got != d {
					t.Fatalf("MyersBounded long below the distance = %d, want k+1 = %d", got, d)
				}
			}
		}
	}
}

func TestMyersEmpty(t *testing.T) {
	if got := MyersBounded(nil, []rune("abc"), 3); got != 3 {
		t.Errorf("MyersBounded(\"\",abc) = %d, want 3", got)
	}
	if got := MyersBounded([]rune("abc"), nil, 3); got != 3 {
		t.Errorf("MyersBounded(abc,\"\") = %d, want 3", got)
	}
}

func TestWeightsAndUnitAccessors(t *testing.T) {
	u := Unit{}
	if u.Sub('a', 'a') != 0 || u.Sub('a', 'b') != 1 || u.Del('a') != 1 || u.Ins('a') != 1 {
		t.Error("Unit cost model wrong")
	}
	w := Weights{SubCost: 2, DelCost: 3, InsCost: 4}
	if w.Sub('a', 'a') != 0 || w.Sub('a', 'b') != 2 || w.Del('a') != 3 || w.Ins('a') != 4 {
		t.Error("Weights cost model wrong")
	}
}

func TestWeightsByPathLengthBasics(t *testing.T) {
	a, b := []rune("ab"), []rune("aba")
	w := WeightsByPathLength(a, b, Unit{})
	if len(w) != len(a)+len(b)+1 {
		t.Fatalf("len(w) = %d, want %d", len(w), len(a)+len(b)+1)
	}
	// Minimal feasible L is max(m,n)=3 with weight 1 (two matches + one insert).
	if w[3] != 1 {
		t.Errorf("w[3] = %v, want 1", w[3])
	}
	// L=0..2 infeasible.
	for L := 0; L < 3; L++ {
		if !math.IsInf(w[L], 1) {
			t.Errorf("w[%d] = %v, want +Inf", L, w[L])
		}
	}
	// L=5 = m+n: delete both of a, insert all of b: weight 5.
	if w[5] != 5 {
		t.Errorf("w[5] = %v, want 5", w[5])
	}
}

func TestWeightsByPathLengthEmpty(t *testing.T) {
	w := WeightsByPathLength(nil, nil, Unit{})
	if len(w) != 1 || w[0] != 0 {
		t.Errorf("empty/empty: %v", w)
	}
	w = WeightsByPathLength([]rune("abc"), nil, Unit{})
	if w[3] != 3 {
		t.Errorf("abc/empty w[3] = %v, want 3", w[3])
	}
	w = WeightsByPathLength(nil, []rune("ab"), Unit{})
	if w[2] != 2 {
		t.Errorf("empty/ab w[2] = %v, want 2", w[2])
	}
}

func TestWeightsByPathLengthMinIsDistance(t *testing.T) {
	// The minimum over L of w[L] must be the plain edit distance.
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		a := randomString(r, 10, testAlphabet)
		b := randomString(r, 10, testAlphabet)
		w := WeightsByPathLength(a, b, Unit{})
		best := math.Inf(1)
		for _, v := range w {
			if v < best {
				best = v
			}
		}
		if want := float64(Distance(a, b)); best != want {
			t.Fatalf("min over L = %v, want %v (%q,%q)", best, want, string(a), string(b))
		}
	}
}

// weightsByPathLengthReference is the unrestricted form of
// WeightsByPathLength: every cell visits every L in [1, m+n], and both
// planes start each row filled with +Inf.
func weightsByPathLengthReference(a, b []rune, c Costs) []float64 {
	m, n := len(a), len(b)
	maxL := m + n
	width := maxL + 1
	inf := math.Inf(1)

	prev := make([]float64, (n+1)*width)
	cur := make([]float64, (n+1)*width)
	for i := range prev {
		prev[i] = inf
	}
	prev[0] = 0
	acc := 0.0
	for j := 1; j <= n; j++ {
		acc += c.Ins(b[j-1])
		prev[j*width+j] = acc
	}
	delAcc := 0.0
	for i := 1; i <= m; i++ {
		for x := range cur {
			cur[x] = inf
		}
		delAcc += c.Del(a[i-1])
		cur[i] = delAcc
		for j := 1; j <= n; j++ {
			row := cur[j*width : (j+1)*width]
			diag := prev[(j-1)*width : j*width]
			up := prev[j*width : (j+1)*width]
			left := cur[(j-1)*width : j*width]
			subCost := c.Sub(a[i-1], b[j-1])
			delCost := c.Del(a[i-1])
			insCost := c.Ins(b[j-1])
			for L := 1; L <= maxL; L++ {
				best := diag[L-1] + subCost
				if v := up[L-1] + delCost; v < best {
					best = v
				}
				if v := left[L-1] + insCost; v < best {
					best = v
				}
				row[L] = best
			}
		}
		prev, cur = cur, prev
	}
	out := make([]float64, width)
	copy(out, prev[n*width:(n+1)*width])
	return out
}

// TestWeightsByPathLengthMatchesReference requires every weight, +Inf
// included, to equal the reference's bit for bit, under unit and uneven
// costs, on one alphabet small enough for many matches and one too large
// for most.
func TestWeightsByPathLengthMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	costs := []Costs{Unit{}, Weights{SubCost: 1.3, DelCost: 0.7, InsCost: 1.1}}
	alphabets := [][]rune{testAlphabet, []rune("abcdefgh")}
	for i := 0; i < 2000; i++ {
		alpha := alphabets[i%len(alphabets)]
		a := randomString(r, 14, alpha)
		b := randomString(r, 14, alpha)
		c := costs[(i/2)%len(costs)]
		got, want := WeightsByPathLength(a, b, c), weightsByPathLengthReference(a, b, c)
		if len(got) != len(want) {
			t.Fatalf("len %d, want %d for %q %q", len(got), len(want), string(a), string(b))
		}
		for L := range want {
			if math.Float64bits(got[L]) != math.Float64bits(want[L]) {
				t.Fatalf("w[%d] = %v, reference %v for %q %q under %T", L, got[L], want[L], string(a), string(b), c)
			}
		}
	}
}

func TestWeightsByPathLengthMonotoneFeasibility(t *testing.T) {
	// Feasible L values form a contiguous range from max(m,n) to m+n; verify
	// its ends.
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		a := randomString(r, 8, testAlphabet)
		b := randomString(r, 8, testAlphabet)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		w := WeightsByPathLength(a, b, Unit{})
		lo := len(a)
		if len(b) > lo {
			lo = len(b)
		}
		if math.IsInf(w[lo], 1) {
			t.Fatalf("w[max(m,n)=%d] infeasible for %q %q", lo, string(a), string(b))
		}
		if math.IsInf(w[len(a)+len(b)], 1) {
			t.Fatalf("w[m+n] infeasible for %q %q", string(a), string(b))
		}
	}
}

func BenchmarkDistanceShort(b *testing.B) {
	x, y := []rune("contextual"), []rune("normalised")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}
