package search

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ced/internal/metric"
)

// TestIndexesMatchLinearExactly pins every index to the linear scan —
// same corpus indexes, same distances, same hit sets — for Search, k-NN
// with and without a pruning bound, and radius queries. Every index orders
// hits by (distance, corpus index), so equal-distance ties must resolve
// identically; short strings over a three-letter alphabet make ties the
// common case. The BK-tree and the trie need dE; the corpus has no
// duplicates, so the trie's distinct-string answers are Linear's too.
//
// Under dE every distance is a small integer, the triangle-inequality
// arithmetic is exact, and the answers must be identical. Under dC they
// are identical except within a rounding window around the answer's
// boundary distance (the k-th best, the bound or the radius): dC is a
// metric over the reals, but its float64 values are not exactly symmetric
// (d(a, b) and d(b, a) can differ in the last bit) and a triangle bound
// such as |d(q, p) − d(p, x)| can round above d(q, x) when the three
// strings lie on one edit path. An index can then prune a candidate whose
// distance equals the boundary, which Linear, pruning nothing, keeps. See
// sameBelowBoundary.
func TestIndexesMatchLinearExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	corpus := dedupe(randomCorpus(rng, 300, 6, []rune("abc")))
	queries := randomCorpus(rng, 40, 7, []rune("abcd"))
	ctx := context.Background()
	inf := math.Inf(1)
	for _, m := range []metric.Metric{metric.Levenshtein(), metric.Contextual()} {
		indexes := []Index{
			NewLAESA(corpus, m, 8, MaxSum, 1),
			NewAESA(corpus, m),
			NewVPTree(corpus, m, 2),
		}
		radii := []float64{0, 0.2, 0.35}
		if m.Name() == "dE" {
			indexes = append(indexes, NewBKTree(corpus, m), NewTrie(corpus))
			radii = []float64{0, 1, 2}
		}
		lin := NewLinear(corpus, m)
		for _, q := range queries {
			five := lin.KNearest(q, 5)
			reqs := []Request{KNN(1, inf), KNN(5, inf), KNN(5, five[2].Distance), KNN(3, five[0].Distance)}
			for _, r := range radii {
				reqs = append(reqs, Within(r))
			}
			for _, req := range reqs {
				want, err := lin.Query(ctx, q, req)
				if err != nil {
					t.Fatal(err)
				}
				for _, ix := range indexes {
					got, err := ix.Query(ctx, q, req)
					if err != nil {
						t.Fatal(err)
					}
					same := slices.Equal(got.Hits, want.Hits)
					if m.Name() == "dC" {
						same = sameBelowBoundary(got.Hits, want.Hits, req, func(i int) float64 { return m.Distance(q, corpus[i]) })
					}
					if !same {
						t.Fatalf("%s %s(%q, %+v):\n got %v\nwant %v", m.Name(), ix.Name(), string(q), req, got.Hits, want.Hits)
					}
				}
			}
			if m.Name() != "dE" {
				continue
			}
			want := lin.Search(q).Result
			for _, ix := range indexes {
				if got := ix.Search(q).Result; got != want {
					t.Fatalf("%s %s.Search(%q) = %+v, linear %+v", m.Name(), ix.Name(), string(q), got, want)
				}
			}
		}
	}
}

// roundingWindow is far wider than dC's float64 rounding (a few ulps of
// values at most 1) and far narrower than any gap between distinct dC
// values of short strings.
const roundingWindow = 1e-9

// sameBelowBoundary compares an answer under dC with Linear's: the hits
// nearer than the boundary distance b minus the rounding window must be
// identical, and every other hit must be a genuine element (its distance
// is the query's distance to it) within the boundary. b is the radius, or
// the k-th best distance of Linear's answer — the bound when fewer than k
// elements lie within it.
func sameBelowBoundary(got, want []Result, req Request, dist func(i int) float64) bool {
	b := req.Bound()
	if !req.IsRadius() && len(want) == req.K() {
		b = want[len(want)-1].Distance
	}
	inside := func(hs []Result) []Result {
		n := 0
		for n < len(hs) && hs[n].Distance < b-roundingWindow {
			n++
		}
		return hs[:n]
	}
	if !slices.Equal(inside(got), inside(want)) || len(got) > len(want) {
		return false
	}
	for _, h := range got[len(inside(got)):] {
		if h.Distance != dist(h.Index) || h.Distance > b+roundingWindow {
			return false
		}
	}
	return true
}

// TestBKTreeSearchDeterministic is the regression test for the map-order
// tie: the BK-tree visits children in Go map order, and a 1-NN walk that
// keeps the first equal-distance neighbour it meets answered differently
// from call to call. Ties resolve by corpus index now, so repeated calls
// agree with each other and with the linear scan.
func TestBKTreeSearchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	corpus := randomCorpus(rng, 400, 7, []rune("abcd"))
	queries := randomCorpus(rng, 40, 7, []rune("abcd"))
	m := metric.Levenshtein()
	bk, lin := NewBKTree(corpus, m), NewLinear(corpus, m)
	for _, q := range queries {
		want := lin.Search(q).Result
		for i := 0; i < 20; i++ {
			if got := bk.Search(q).Result; got != want {
				t.Fatalf("call %d: Search(%q) = %+v, want %+v", i, string(q), got, want)
			}
		}
	}
}
