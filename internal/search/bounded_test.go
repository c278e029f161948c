package search

import (
	"math/rand"
	"testing"

	"ced/internal/metric"
)

// These tests pin down the cutoff-bounded evaluation paths: with a
// staged metric (the exact dC, and dE for the BK-tree) every searcher must
// return exactly what the exhaustive scan returns — same neighbour, same
// distance, same hit sets — because a bail is only ever taken when the
// candidate provably cannot matter.

func boundedCorpus(n, maxLen int, seed int64) [][]rune {
	r := rand.New(rand.NewSource(seed))
	alpha := []rune("abcd")
	corpus := make([][]rune, n)
	for i := range corpus {
		l := 1 + r.Intn(maxLen)
		s := make([]rune, l)
		for j := range s {
			s[j] = alpha[r.Intn(len(alpha))]
		}
		corpus[i] = s
	}
	return corpus
}

func TestBoundedSearchersMatchLinearExactContextual(t *testing.T) {
	m := metric.Contextual()
	if _, ok := m.(metric.Staged); !ok {
		t.Fatal("test requires dC to be Staged")
	}
	corpus := boundedCorpus(120, 12, 21)
	queries := boundedCorpus(25, 12, 22)
	lin := NewLinear(corpus, m)
	la := NewLAESA(corpus, m, 12, MaxSum, 23)
	vp := NewVPTree(corpus, m, 24)
	for _, q := range queries {
		want := lin.Search(q)
		for _, s := range []Index{la, vp} {
			got := s.Search(q)
			if got.Distance != want.Distance {
				t.Fatalf("%s(%q): distance %v, linear %v", s.Name(), string(q), got.Distance, want.Distance)
			}
		}
		wantK := lin.KNearest(q, 5)
		for _, s := range []Index{la, vp} {
			gotK := s.KNearest(q, 5)
			if len(gotK) != len(wantK) {
				t.Fatalf("%s KNearest size %d, want %d", s.Name(), len(gotK), len(wantK))
			}
			for i := range wantK {
				if gotK[i].Distance != wantK[i].Distance {
					t.Fatalf("%s KNearest[%d]: %v, linear %v", s.Name(), i, gotK[i].Distance, wantK[i].Distance)
				}
			}
		}
		const r = 0.4
		wantR, _ := radius(lin, q, r)
		for _, s := range []Index{la, vp} {
			gotR, _ := radius(s, q, r)
			if len(gotR) != len(wantR) {
				t.Fatalf("%s Radius: %d hits, linear %d", s.Name(), len(gotR), len(wantR))
			}
			for i := range wantR {
				if gotR[i].Index != wantR[i].Index || gotR[i].Distance != wantR[i].Distance {
					t.Fatalf("%s Radius[%d]: %+v, linear %+v", s.Name(), i, gotR[i], wantR[i])
				}
			}
		}
	}
}

func TestBoundedBKTreeMatchesLinearLevenshtein(t *testing.T) {
	m := metric.Levenshtein()
	if _, ok := m.(metric.Staged); !ok {
		t.Fatal("test requires dE to be Staged")
	}
	corpus := boundedCorpus(150, 10, 31)
	queries := boundedCorpus(30, 10, 32)
	lin := NewLinear(corpus, m)
	bk := NewBKTree(corpus, m)
	for _, q := range queries {
		if got, want := bk.Search(q), lin.Search(q); got.Distance != want.Distance {
			t.Fatalf("bktree(%q): distance %v, linear %v", string(q), got.Distance, want.Distance)
		}
		gotK, wantK := bk.KNearest(q, 4), lin.KNearest(q, 4)
		for i := range wantK {
			if gotK[i].Index != wantK[i].Index || gotK[i].Distance != wantK[i].Distance {
				t.Fatalf("bktree KNearest[%d]: %+v, linear %+v", i, gotK[i], wantK[i])
			}
		}
		gotR, _ := radius(bk, q, 2)
		wantR, _ := radius(lin, q, 2)
		if len(gotR) != len(wantR) {
			t.Fatalf("bktree Radius: %d hits, linear %d", len(gotR), len(wantR))
		}
		for i := range wantR {
			if gotR[i].Index != wantR[i].Index {
				t.Fatalf("bktree Radius[%d]: %+v, linear %+v", i, gotR[i], wantR[i])
			}
		}
	}
}

// TestBoundedLAESACountsEveryEvaluation pins the comps semantics: bounded
// evaluations count exactly like full ones, so the comps/query statistic
// stays comparable with the unbounded implementation (and the paper).
func TestBoundedLAESACountsEveryEvaluation(t *testing.T) {
	corpus := boundedCorpus(80, 10, 41)
	q := []rune("abca")
	bounded := NewLAESA(corpus, metric.Contextual(), 8, MaxSum, 42)
	unbounded := NewLAESA(corpus, metric.New("dC", metric.Contextual().Distance), 8, MaxSum, 42)
	got, want := bounded.Search(q), unbounded.Search(q)
	if got.Computations != want.Computations || got.Distance != want.Distance {
		t.Fatalf("bounded LAESA diverged from unbounded: %+v vs %+v", got, want)
	}
}
