package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ced/internal/metric"
)

func TestVPTreeKNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	corpus := randomCorpus(rng, 130, 9, alpha)
	queries := randomCorpus(rng, 25, 9, alpha)
	m := metric.Levenshtein()
	lin := NewLinear(corpus, m)
	vp := NewVPTree(corpus, m, 7)
	for _, q := range queries {
		for _, k := range []int{1, 4, 9} {
			want := lin.KNearest(q, k)
			got := vp.KNearest(q, k)
			if len(got) != k {
				t.Fatalf("k=%d: %d results", k, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Distance-want[i].Distance) > 1e-12 {
					t.Fatalf("k=%d rank %d: %v vs %v", k, i, got[i].Distance, want[i].Distance)
				}
			}
		}
	}
	if got := vp.KNearest([]rune("aa"), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := vp.KNearest([]rune("aa"), 1000); len(got) != len(corpus) {
		t.Error("k>n should clamp")
	}
	empty := NewVPTree(nil, m, 1)
	if got := empty.KNearest([]rune("aa"), 2); got != nil {
		t.Error("empty tree should return nil")
	}
}

func TestVPTreeRadiusMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	corpus := randomCorpus(rng, 120, 9, alpha)
	m := metric.Levenshtein()
	lin := NewLinear(corpus, m)
	vp := NewVPTree(corpus, m, 8)
	for _, q := range randomCorpus(rng, 20, 9, alpha) {
		for _, r := range []float64{0, 1, 3} {
			want, _ := radius(lin, q, r)
			got, comps := radius(vp, q, r)
			if len(got) != len(want) {
				t.Fatalf("radius %v: %d hits, want %d", r, len(got), len(want))
			}
			for i := range got {
				if got[i].Index != want[i].Index || got[i].Distance != want[i].Distance {
					t.Fatalf("radius %v hit %d: %+v vs %+v", r, i, got[i], want[i])
				}
			}
			if comps <= 0 || comps > len(corpus) {
				t.Fatalf("computations = %d", comps)
			}
		}
	}
}

func TestBKTreeKNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	corpus := randomCorpus(rng, 130, 9, alpha)
	queries := randomCorpus(rng, 25, 9, alpha)
	m := metric.Levenshtein()
	lin := NewLinear(corpus, m)
	bk := NewBKTree(corpus, m)
	for _, q := range queries {
		for _, k := range []int{1, 4, 9} {
			want := lin.KNearest(q, k)
			ans, _ := bk.Query(context.Background(), q, KNN(k, math.Inf(1)))
			got := ans.Hits
			if len(got) != k {
				t.Fatalf("k=%d: %d results", k, len(got))
			}
			for i := range got {
				// The collector breaks distance ties by corpus index,
				// exactly like Linear, so the full (Index, Distance) ranking
				// must match deterministically despite the map-order walk.
				if got[i].Distance != want[i].Distance || got[i].Index != want[i].Index {
					t.Fatalf("k=%d rank %d: %+v vs %+v", k, i, got[i], want[i])
				}
			}
			if ans.Computations <= 0 || ans.Computations > len(corpus) {
				t.Fatalf("computations = %d", ans.Computations)
			}
		}
	}
	if got := bk.KNearest([]rune("aa"), 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := bk.KNearest([]rune("aa"), 1000); len(got) != len(corpus) {
		t.Error("k>n should clamp")
	}
	empty := NewBKTree(nil, m)
	if got := empty.KNearest([]rune("aa"), 2); got != nil {
		t.Error("empty tree should return nil")
	}
}

func TestLinearRadius(t *testing.T) {
	corpus := [][]rune{[]rune("aaaa"), []rune("aaab"), []rune("bbbb")}
	lin := NewLinear(corpus, metric.Levenshtein())
	hits, comps := radius(lin, []rune("aaaa"), 1)
	if comps != 3 {
		t.Errorf("comps = %d", comps)
	}
	if len(hits) != 2 || hits[0].Index != 0 || hits[1].Index != 1 {
		t.Errorf("hits = %+v", hits)
	}
}

func TestBKTreeRadiusSorted(t *testing.T) {
	corpus := [][]rune{[]rune("abc"), []rune("abd"), []rune("abcd"), []rune("zzz")}
	bk := NewBKTree(corpus, metric.Levenshtein())
	hits, _ := radius(bk, []rune("abc"), 1)
	if len(hits) != 3 {
		t.Fatalf("hits = %+v", hits)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Distance < hits[i-1].Distance {
			t.Error("hits not sorted")
		}
	}
	if hits[0].Index != 0 || hits[0].Distance != 0 {
		t.Errorf("nearest hit = %+v", hits[0])
	}
}

func TestConcurrentQueriesAreSafe(t *testing.T) {
	// Search must be read-only: hammer one index from many goroutines.
	// Run with -race to catch violations.
	rng := rand.New(rand.NewSource(102))
	corpus := randomCorpus(rng, 100, 8, alpha)
	queries := randomCorpus(rng, 40, 8, alpha)
	m := metric.ContextualHeuristic()
	searchers := []Index{
		NewLinear(corpus, m),
		NewLAESA(corpus, m, 10, MaxSum, 1),
		NewAESA(corpus, m),
		NewVPTree(corpus, m, 2),
		NewBKTree(corpus, metric.Levenshtein()),
	}
	lin := NewLinear(corpus, m)
	for _, s := range searchers {
		s := s
		done := make(chan bool, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				ok := true
				for i := g; i < len(queries); i += 8 {
					r := s.Search(queries[i])
					if s.Name() != "bktree" { // bktree uses dE, others dC,h
						if want := lin.Search(queries[i]).Distance; math.Abs(r.Distance-want) > 1e-12 {
							ok = false
						}
					}
				}
				done <- ok
			}(g)
		}
		for g := 0; g < 8; g++ {
			if !<-done {
				t.Errorf("%s returned wrong result under concurrency", s.Name())
			}
		}
	}
}
