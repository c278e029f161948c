package ced_test

import (
	"math"
	"testing"

	"ced"
)

const eps = 1e-12

func TestFacadeDistances(t *testing.T) {
	cases := []struct {
		m    ced.Metric
		a, b string
		want float64
	}{
		{ced.Contextual(), "ababa", "baab", 8.0 / 15}, // Example 4 of the paper
		{ced.ContextualHeuristic(), "ababa", "baab", 8.0 / 15},
		{ced.Levenshtein(), "abaa", "aab", 2}, // Example 1
		{ced.YujianBo(), "ab", "ba", 2.0 / 3},
		{ced.MarzalVidal(), "ab", "aba", 1.0 / 3},
		{ced.MaxNormalised(), "ab", "aba", 1.0 / 3},
		{ced.MinNormalised(), "ab", "aba", 1.0 / 2},
		{ced.SumNormalised(), "ab", "aba", 1.0 / 5},
	}
	for _, c := range cases {
		if got := c.m.Distance(c.a, c.b); math.Abs(got-c.want) > eps {
			t.Errorf("%s(%q,%q) = %v, want %v", c.m.Name(), c.a, c.b, got, c.want)
		}
	}
}

func TestFacadeUnicode(t *testing.T) {
	// ñ must count as a single symbol.
	if got := ced.Levenshtein().Distance("niño", "nino"); got != 1 {
		t.Errorf("dE(niño,nino) = %v, want 1", got)
	}
	if got := ced.Contextual().Distance("año", "ano"); math.Abs(got-1.0/3) > eps {
		t.Errorf("dC(año,ano) = %v, want 1/3", got)
	}
}

func TestByName(t *testing.T) {
	m, err := ced.ByName("dC,h")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "dC,h" {
		t.Errorf("name = %q", m.Name())
	}
	if _, err := ced.ByName("bogus"); err == nil {
		t.Error("bogus name should fail")
	}
	if len(ced.Names()) != 8 {
		t.Errorf("Names() = %v", ced.Names())
	}
}

func TestContextualDecompose(t *testing.T) {
	d := ced.ContextualDecompose("ababa", "baab")
	if !d.Exact {
		t.Error("exact decomposition not marked exact")
	}
	if d.Operations != 3 || d.Insertions != 1 || d.Substitutions != 0 || d.Deletions != 2 {
		t.Errorf("decomposition = %+v", d)
	}
	if math.Abs(d.Distance-8.0/15) > eps {
		t.Errorf("distance = %v", d.Distance)
	}
	h := ced.ContextualHeuristicDecompose("ababa", "baab")
	if h.Exact {
		t.Error("heuristic decomposition marked exact")
	}
	if h.Operations != 2+1 { // dE(ababa,baab) = 3
		t.Errorf("heuristic operations = %d, want 3", h.Operations)
	}
	if d.Insertions+d.Substitutions+d.Deletions != d.Operations {
		t.Error("decomposition does not sum")
	}
}

// mustIndex builds an index by name or fails the test.
func mustIndex(t *testing.T, algorithm string, corpus []string, m ced.Metric, pivots int) *ced.Index {
	t.Helper()
	ix, err := ced.NewIndex(algorithm, corpus, m, pivots)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestIndexSearch(t *testing.T) {
	corpus := []string{"casa", "cosa", "caso", "masa", "pasa", "queso", "beso"}
	for _, build := range []struct {
		name string
		ix   *ced.Index
	}{
		{"laesa", ced.NewLAESA(corpus, ced.ContextualHeuristic(), 3)},
		{"linear", ced.NewLinear(corpus, ced.ContextualHeuristic())},
		{"aesa", mustIndex(t, "aesa", corpus, ced.ContextualHeuristic(), 0)},
	} {
		r := build.ix.Nearest("casa")
		if r.Value != "casa" || r.Distance != 0 {
			t.Errorf("%s: self query got %+v", build.name, r)
		}
		r = build.ix.Nearest("cas")
		if r.Value != "casa" && r.Value != "caso" {
			t.Errorf("%s: Nearest(cas) = %q", build.name, r.Value)
		}
		if r.Computations <= 0 || r.Computations > len(corpus) {
			t.Errorf("%s: computations = %d", build.name, r.Computations)
		}
		if build.ix.Len() != len(corpus) {
			t.Errorf("%s: Len = %d", build.name, build.ix.Len())
		}
	}
}

func TestNewIndexByName(t *testing.T) {
	corpus := []string{"a", "b"}
	for _, alg := range []string{"laesa", "linear", "aesa", "bktree"} {
		ix, err := ced.NewIndex(alg, corpus, ced.Levenshtein(), 1)
		if err != nil {
			t.Fatalf("NewIndex(%s): %v", alg, err)
		}
		if ix.Algorithm() != alg {
			t.Errorf("algorithm = %q, want %q", ix.Algorithm(), alg)
		}
	}
	if _, err := ced.NewIndex("btree", corpus, ced.Levenshtein(), 1); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := ced.NewIndex("bktree", corpus, ced.Contextual(), 1); err == nil {
		t.Error("bktree with a fractional metric should fail")
	}
}

// TestNewIndexDefaultsLAESAPivots: NewIndex("laesa", …, 0) builds the
// 16-pivot LAESA every by-name entry point defaults to, not a LAESA with
// no pivots, which spends a linear scan's computations on every query.
func TestNewIndexDefaultsLAESAPivots(t *testing.T) {
	words := ced.GenerateSpanish(500, 7)
	queries := ced.PerturbQueries(words, 20, 2, 8)
	m := ced.Contextual()
	got := mustIndex(t, "laesa", words.Strings, m, 0)
	want := ced.NewLAESA(words.Strings, m, 16)
	for _, q := range queries.Strings {
		g, w := got.Nearest(q), want.Nearest(q)
		if g != w {
			t.Fatalf("Nearest(%q) = %+v, want the 16-pivot LAESA's %+v", q, g, w)
		}
		if g.Computations >= words.Len() {
			t.Fatalf("Nearest(%q) spent %d computations over %d words", q, g.Computations, words.Len())
		}
	}
}

func TestIndexAgreesAcrossAlgorithms(t *testing.T) {
	words := ced.GenerateSpanish(200, 3)
	queries := ced.PerturbQueries(words, 40, 2, 4)
	m := ced.Levenshtein()
	lin := ced.NewLinear(words.Strings, m)
	laesa := ced.NewLAESA(words.Strings, m, 20)
	bk := mustIndex(t, "bktree", words.Strings, m, 0)
	for _, q := range queries.Strings {
		want := lin.Nearest(q).Distance
		if got := laesa.Nearest(q).Distance; got != want {
			t.Fatalf("laesa Nearest(%q) distance %v, want %v", q, got, want)
		}
		if got := bk.Nearest(q).Distance; got != want {
			t.Fatalf("bktree Nearest(%q) distance %v, want %v", q, got, want)
		}
	}
}

func TestGenerators(t *testing.T) {
	sp := ced.GenerateSpanish(50, 1)
	if sp.Len() != 50 || sp.Labelled() {
		t.Error("spanish generator wrong shape")
	}
	dna := ced.GenerateDNA(ced.DNAOptions{Count: 20, MinLen: 60, MaxLen: 90}, 1)
	if dna.Len() != 20 || !dna.Labelled() {
		t.Error("dna generator wrong shape")
	}
	dig := ced.GenerateDigits(ced.DigitsOptions{Count: 20}, 1)
	if dig.Len() != 20 || !dig.Labelled() {
		t.Error("digits generator wrong shape")
	}
}

func TestClassifyFacade(t *testing.T) {
	train := ced.GenerateDigits(ced.DigitsOptions{Count: 60, Writers: 3, Grid: 32}, 5)
	test := ced.GenerateDigits(ced.DigitsOptions{Count: 30, Writers: 3, FirstWriter: 3, Grid: 32}, 6)
	ix := ced.NewLAESA(train.Strings, ced.ContextualHeuristic(), 10)
	res, err := ced.Classify(ix, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested != 30 {
		t.Errorf("tested = %d", res.Tested)
	}
	if res.ErrorRate < 0 || res.ErrorRate > 100 {
		t.Errorf("error rate = %v", res.ErrorRate)
	}
	if res.ErrorRate > 60 {
		t.Errorf("error rate %v close to chance; pipeline broken", res.ErrorRate)
	}
	if len(res.Confusion) != 10 {
		t.Errorf("confusion classes = %d", len(res.Confusion))
	}
	// Unlabelled data must be rejected.
	if _, err := ced.Classify(ix, ced.GenerateSpanish(10, 1), test); err == nil {
		t.Error("unlabelled train should fail")
	}
}

func TestRoundTripDatasetFile(t *testing.T) {
	dir := t.TempDir()
	d := ced.GenerateSpanish(25, 9)
	path := dir + "/words.txt"
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ced.ReadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Errorf("round trip lost strings")
	}
}

func TestCustomMetricThroughIndex(t *testing.T) {
	// A user-supplied Metric implementation must work with the indexes.
	m := lengthMetric{}
	corpus := []string{"a", "bb", "ccc", "dddd"}
	ix := ced.NewLAESA(corpus, m, 2)
	r := ix.Nearest("xx")
	if r.Value != "bb" {
		t.Errorf("custom metric nearest = %q, want bb", r.Value)
	}
}

type lengthMetric struct{}

func (lengthMetric) Name() string { return "len" }
func (lengthMetric) Distance(a, b string) float64 {
	d := len([]rune(a)) - len([]rune(b))
	if d < 0 {
		d = -d
	}
	return float64(d)
}

func TestIndexKNearestAndRadius(t *testing.T) {
	corpus := []string{"casa", "cosa", "caso", "masa", "pasa", "queso"}
	for _, ix := range []*ced.Index{
		ced.NewLAESA(corpus, ced.Levenshtein(), 2),
		ced.NewLinear(corpus, ced.Levenshtein()),
		mustIndex(t, "bktree", corpus, ced.Levenshtein(), 0),
	} {
		top := ix.KNearest("casa", 3)
		if len(top) != 3 {
			t.Fatalf("%s: KNearest returned %d", ix.Algorithm(), len(top))
		}
		if top[0].Value != "casa" || top[0].Distance != 0 {
			t.Errorf("%s: top = %+v", ix.Algorithm(), top[0])
		}
		for i := 1; i < len(top); i++ {
			if top[i].Distance < top[i-1].Distance {
				t.Errorf("%s: KNearest unsorted", ix.Algorithm())
			}
		}
		hits := ix.Radius("casa", 1)
		found := map[string]bool{}
		for _, h := range hits {
			found[h.Value] = true
			if h.Distance > 1 {
				t.Errorf("%s: radius hit too far: %+v", ix.Algorithm(), h)
			}
		}
		for _, want := range []string{"casa", "cosa", "caso", "masa", "pasa"} {
			if !found[want] {
				t.Errorf("%s: radius missed %q (got %v)", ix.Algorithm(), want, found)
			}
		}
		if found["queso"] {
			t.Errorf("%s: radius included queso", ix.Algorithm())
		}
	}
}

func TestContextualBounded(t *testing.T) {
	want := ced.Contextual().Distance("ababa", "baab") // 8/15
	if d, exact := ced.ContextualBounded("ababa", "baab", 1); !exact || d != want {
		t.Errorf("generous cutoff: got (%v, %v), want (%v, true)", d, exact, want)
	}
	d, exact := ced.ContextualBounded("ababa", "baab", 0.1)
	if exact && d != want {
		t.Errorf("exact result under tight cutoff must match: %v vs %v", d, want)
	}
	if !exact && d <= 0.1 {
		t.Errorf("bail value %v at or below the cutoff", d)
	}
}
