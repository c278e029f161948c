package search

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ced/internal/metric"
)

func TestLAESAKNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	corpus := randomCorpus(rng, 150, 10, alpha)
	queries := randomCorpus(rng, 25, 10, alpha)
	m := metric.Levenshtein()
	lin := NewLinear(corpus, m)
	la := NewLAESA(corpus, m, 15, MaxSum, 3)
	for _, q := range queries {
		for _, k := range []int{1, 3, 7} {
			want := lin.KNearest(q, k)
			got := la.KNearest(q, k)
			if len(got) != k {
				t.Fatalf("k=%d: got %d results", k, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Distance-want[i].Distance) > 1e-12 {
					t.Fatalf("k=%d rank %d: distance %v, want %v", k, i, got[i].Distance, want[i].Distance)
				}
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Distance < got[j].Distance }) {
				t.Fatal("KNearest not sorted")
			}
		}
	}
}

func TestLAESAKNearestEdgeCases(t *testing.T) {
	m := metric.Levenshtein()
	la := NewLAESA(nil, m, 3, MaxSum, 1)
	if got := la.KNearest([]rune("a"), 3); got != nil {
		t.Error("empty corpus should return nil")
	}
	corpus := [][]rune{[]rune("aa"), []rune("ab")}
	la2 := NewLAESA(corpus, m, 1, MaxSum, 1)
	if got := la2.KNearest([]rune("aa"), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	got := la2.KNearest([]rune("aa"), 10)
	if len(got) != 2 {
		t.Errorf("k>n should clamp: got %d", len(got))
	}
}

func TestLAESAKNearestConsistentWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	corpus := randomCorpus(rng, 100, 8, alpha)
	m := metric.ContextualHeuristic()
	la := NewLAESA(corpus, m, 10, MaxSum, 2)
	for _, q := range randomCorpus(rng, 20, 8, alpha) {
		one := la.Search(q)
		top := la.KNearest(q, 1)
		if math.Abs(one.Distance-top[0].Distance) > 1e-12 {
			t.Fatalf("KNearest(1) %v != Search %v", top[0].Distance, one.Distance)
		}
	}
}

func TestLAESARadiusMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	corpus := randomCorpus(rng, 120, 8, alpha)
	m := metric.Levenshtein()
	la := NewLAESA(corpus, m, 12, MaxSum, 4)
	for _, q := range randomCorpus(rng, 20, 8, alpha) {
		for _, r := range []float64{0, 1, 2, 4} {
			// Reference: brute force.
			var want []int
			for i, c := range corpus {
				if m.Distance(q, c) <= r {
					want = append(want, i)
				}
			}
			got, comps := radius(la, q, r)
			if len(got) != len(want) {
				t.Fatalf("radius %v: got %d hits, want %d", r, len(got), len(want))
			}
			gotSet := map[int]bool{}
			for _, h := range got {
				gotSet[h.Index] = true
				if h.Distance > r {
					t.Fatalf("hit outside radius: %+v", h)
				}
			}
			for _, w := range want {
				if !gotSet[w] {
					t.Fatalf("radius %v missed index %d", r, w)
				}
			}
			if comps <= 0 || comps > len(corpus) {
				t.Fatalf("computations = %d", comps)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool {
				if got[i].Distance != got[j].Distance {
					return got[i].Distance < got[j].Distance
				}
				return got[i].Index < got[j].Index
			}) {
				t.Fatal("radius results not sorted")
			}
		}
	}
}

func TestLAESARadiusPrunes(t *testing.T) {
	// With a tight radius and enough pivots, the radius query should beat
	// a full scan on average.
	rng := rand.New(rand.NewSource(93))
	corpus := randomCorpus(rng, 400, 12, alpha)
	m := metric.Levenshtein()
	la := NewLAESA(corpus, m, 30, MaxSum, 5)
	total := 0
	queries := randomCorpus(rng, 30, 12, alpha)
	for _, q := range queries {
		_, comps := radius(la, q, 2)
		total += comps
	}
	if avg := float64(total) / float64(len(queries)); avg >= float64(len(corpus)) {
		t.Errorf("radius query avg computations %.1f did not beat scan %d", avg, len(corpus))
	}
}

func TestLAESARadiusEmptyCorpus(t *testing.T) {
	la := NewLAESA(nil, metric.Levenshtein(), 2, MaxSum, 1)
	hits, comps := radius(la, []rune("a"), 5)
	if hits != nil || comps != 0 {
		t.Error("empty corpus radius should be empty")
	}
}
