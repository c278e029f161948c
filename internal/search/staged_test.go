package search

import (
	"context"
	"math"
	"testing"

	"ced/internal/metric"
)

// dedupe drops repeated strings, keeping first occurrences in order.
func dedupe(corpus [][]rune) [][]rune {
	seen := make(map[string]bool, len(corpus))
	out := corpus[:0]
	for _, s := range corpus {
		if !seen[string(s)] {
			seen[string(s)] = true
			out = append(out, s)
		}
	}
	return out
}

// TestBoundedAESAMatchesLinear pins the AESA bounded-evaluation contract:
// the cutoff passed per candidate (pruning bound + largest live matrix
// entry) may only trigger when the whole remaining candidate set is
// decided, so results AND computation counts must be bit-identical to an
// AESA over the same metric without bounded evaluation.
func TestBoundedAESAMatchesLinear(t *testing.T) {
	m := metric.Contextual()
	corpus := boundedCorpus(100, 12, 51)
	queries := boundedCorpus(25, 16, 52)
	lin := NewLinear(corpus, m)
	bounded := NewAESA(corpus, m)
	unbounded := NewAESA(corpus, metric.New("dC", m.Distance))
	for _, q := range queries {
		want := lin.Search(q)
		got := bounded.Search(q)
		if got.Distance != want.Distance {
			t.Fatalf("aesa(%q): distance %v, linear %v", string(q), got.Distance, want.Distance)
		}
		plain := unbounded.Search(q)
		if got.Computations != plain.Computations || got.Distance != plain.Distance || got.Index != plain.Index {
			t.Fatalf("bounded aesa diverged from unbounded for %q: %+v vs %+v", string(q), got, plain)
		}

		wantK := lin.KNearest(q, 4)
		gotK, _ := bounded.Query(context.Background(), q, KNN(4, math.Inf(1)))
		plainK, _ := unbounded.Query(context.Background(), q, KNN(4, math.Inf(1)))
		if len(gotK.Hits) != len(wantK) || len(plainK.Hits) != len(wantK) {
			t.Fatalf("aesa KNearest sizes %d/%d, want %d", len(gotK.Hits), len(plainK.Hits), len(wantK))
		}
		for i := range wantK {
			if gotK.Hits[i] != wantK[i] {
				t.Fatalf("aesa KNearest[%d]: %+v, linear %+v", i, gotK.Hits[i], wantK[i])
			}
		}
		if gotK.Computations != plainK.Computations {
			t.Fatalf("bounded aesa KNearest comps %d, unbounded %d", gotK.Computations, plainK.Computations)
		}

		const r = 0.5
		wantR, _ := radius(lin, q, r)
		gotR, gotComps := radius(bounded, q, r)
		_, plainComps := radius(unbounded, q, r)
		if len(gotR) != len(wantR) {
			t.Fatalf("aesa Radius: %d hits, linear %d", len(gotR), len(wantR))
		}
		for i := range wantR {
			if gotR[i].Index != wantR[i].Index || gotR[i].Distance != wantR[i].Distance {
				t.Fatalf("aesa Radius[%d]: %+v, linear %+v", i, gotR[i], wantR[i])
			}
		}
		if gotComps != plainComps {
			t.Fatalf("bounded aesa Radius comps %d, unbounded %d", gotComps, plainComps)
		}
	}
}

// TestTrieKNearestMatchesLinear checks the trie's k-NN against the
// exhaustive dE scan: same distances, same corpus indices, same tie
// ranking. The corpus is deduplicated first — a trie stores one node per
// distinct string (duplicates keep the first corpus index), so only on a
// duplicate-free corpus are its answers comparable index for index.
func TestTrieKNearestMatchesLinear(t *testing.T) {
	m := metric.Levenshtein()
	corpus := dedupe(boundedCorpus(150, 8, 61))
	queries := boundedCorpus(30, 10, 62)
	lin := NewLinear(corpus, m)
	tr := NewTrie(corpus)
	for _, q := range queries {
		for _, k := range []int{1, 3, 7} {
			want := lin.KNearest(q, k)
			got := tr.KNearest(q, k)
			if len(got) != len(want) {
				t.Fatalf("trie KNearest(%q, %d): %d results, want %d", string(q), k, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || got[i].Distance != want[i].Distance {
					t.Fatalf("trie KNearest(%q, %d)[%d]: %+v, linear %+v", string(q), k, i, got[i], want[i])
				}
			}
		}
	}
	if got := tr.KNearest([]rune("abc"), 0); got != nil {
		t.Fatalf("k=0 must return nil, got %v", got)
	}
	if got := tr.KNearest([]rune("abc"), 1000); len(got) != tr.Size() {
		t.Fatalf("k beyond corpus: %d results, want %d", len(got), tr.Size())
	}

	// Duplicate strings share one trie node (first corpus index wins), so
	// k-NN returns one result per distinct value, clamped accordingly.
	dup := NewTrie([][]rune{[]rune("casa"), []rune("casa"), []rune("cosa")})
	got := dup.KNearest([]rune("casa"), 3)
	if len(got) != 2 {
		t.Fatalf("duplicate corpus: %d results, want 2 distinct", len(got))
	}
	if got[0].Index != 0 || got[0].Distance != 0 || got[1].Index != 2 {
		t.Fatalf("duplicate corpus results = %+v", got)
	}
}

// TestSearchersReportStages checks the per-query ladder counters: under the
// staged exact dC every searcher that bails candidates must attribute each
// bail to a rung, the totals must never exceed the computation count, and
// the identical query under a stage-blind wrapper must report all-zero
// counters.
func TestSearchersReportStages(t *testing.T) {
	m := metric.Contextual()
	if _, ok := m.(metric.Staged); !ok {
		t.Fatal("dC must implement metric.Staged")
	}
	corpus := boundedCorpus(150, 14, 71)
	queries := boundedCorpus(20, 14, 72)
	la := NewLAESA(corpus, m, 12, MaxSum, 73)
	vp := NewVPTree(corpus, m, 74)
	blind := NewLAESA(corpus, metric.New("dC", m.Distance), 12, MaxSum, 73)

	sawReject, sawEmptyReject := false, false
	for _, q := range queries {
		for _, s := range []Index{la, vp} {
			res := s.Search(q)
			total := res.Rejections.Total()
			if total > int64(res.Computations) {
				t.Fatalf("%s: %d rejections > %d computations", s.Name(), total, res.Computations)
			}
			if total > 0 {
				sawReject = true
			}
		}
		if res := blind.Search(q); res.Rejections.Total() != 0 {
			t.Fatalf("stage-blind metric reported rejections: %+v", res.Rejections)
		}
		// k-NN and radius answers carry the query's counters whether or
		// not anything was found.
		for _, req := range []Request{KNN(3, math.Inf(1)), Within(0.4), Within(0)} {
			ans, _ := la.Query(context.Background(), q, req)
			if total := ans.Rejections.Total(); total > int64(ans.Computations) {
				t.Fatalf("%+v: %d rejections > %d computations", req, total, ans.Computations)
			}
			if len(ans.Hits) == 0 && ans.Rejections.Total() > 0 {
				sawEmptyReject = true
			}
		}
	}
	if !sawReject || !sawEmptyReject {
		t.Fatal("expected staged rejections across the query set, zero-hit answers included")
	}
}

// TestBoundedLinearMatchesUnbounded pins the exhaustive scan's bounded
// evaluation: under the staged exact dC, Search/KNearest/Radius must return
// exactly what a Linear over a stage-blind wrapper of the same metric
// returns — same neighbours, distances, hit sets and computation counts.
func TestBoundedLinearMatchesUnbounded(t *testing.T) {
	m := metric.Contextual()
	corpus := boundedCorpus(140, 14, 81)
	queries := boundedCorpus(30, 16, 82)
	bounded := NewLinear(corpus, m)
	plain := NewLinear(corpus, metric.New("dC", m.Distance))
	for _, q := range queries {
		got, want := bounded.Search(q), plain.Search(q)
		if got.Index != want.Index || got.Distance != want.Distance || got.Computations != want.Computations {
			t.Fatalf("Search(%q): %+v vs %+v", string(q), got, want)
		}
		gotK, wantK := bounded.KNearest(q, 5), plain.KNearest(q, 5)
		if len(gotK) != len(wantK) {
			t.Fatalf("KNearest sizes %d vs %d", len(gotK), len(wantK))
		}
		for i := range wantK {
			if gotK[i].Index != wantK[i].Index || gotK[i].Distance != wantK[i].Distance {
				t.Fatalf("KNearest[%d]: %+v vs %+v", i, gotK[i], wantK[i])
			}
		}
		gotR, gc := radius(bounded, q, 0.45)
		wantR, wc := radius(plain, q, 0.45)
		if len(gotR) != len(wantR) || gc != wc {
			t.Fatalf("Radius: %d hits/%d comps vs %d/%d", len(gotR), gc, len(wantR), wc)
		}
		for i := range wantR {
			if gotR[i].Index != wantR[i].Index || gotR[i].Distance != wantR[i].Distance {
				t.Fatalf("Radius[%d]: %+v vs %+v", i, gotR[i], wantR[i])
			}
		}
	}
	// Empty corpus keeps the historical zero-value result.
	if r := NewLinear(nil, m).Search([]rune("x")); r.Index != -1 || r.Distance != 0 {
		t.Fatalf("empty corpus Search = %+v", r)
	}
}
