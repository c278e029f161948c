package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ced/internal/core"
	"ced/internal/editdist"
	"ced/internal/metric"
)

// modelBracket is the bracket Lemma 1 puts around dC(a, b), written from
// its definition: with k = dE(a, b), m = |a|, n = |b| and the harmonic
// numbers H,
//
//	lo = 2H(L) − H(m) − H(n) + s/L,  L = m + ⌊(k+n−m)/2⌋,  s = (k+n−m) mod 2
//	hi = 2H(M) − H(m) − H(n) + (k − |m−n|)/M,  M = max(m, n)
//
// the cheapest k-operation path and the one with the fewest insertions,
// summed in the kernel's order.
func modelBracket(a, b []rune) (lo, hi float64) {
	k, m, n := editdist.Distance(a, b), len(a), len(b)
	l := m + (k+n-m)/2
	lo = core.Harmonic(l) - core.Harmonic(m) + core.Harmonic(l) - core.Harmonic(n)
	if (k+n-m)%2 != 0 {
		lo += 1 / float64(l)
	}
	mx := max(m, n)
	hi = core.Harmonic(mx) - core.Harmonic(m) + core.Harmonic(mx) - core.Harmonic(n)
	if ns := k - (mx - m) - (mx - n); ns > 0 {
		hi += float64(ns) / float64(mx)
	}
	return lo, hi
}

// modelLAESA answers a query over la's corpus, pivots and pivot rows the
// way LAESA is defined, with no bookkeeping beyond the definition: O(n) per
// step and O(n²) per query. While a live pivot remains, it takes the live
// pivot with the smallest (g, corpus index). While τ = +Inf, or when the
// metric has no bracket (metric.EditBracket), it evaluates the pivot
// exactly and offers it. Otherwise it brackets the pivot's distance with
// modelBracket, and only when the bracket's low end is at most τ evaluates
// it through the metric's ladder under τ, offering an exact value, which
// replaces the bracket; a bracket above τ counts as an edit-rung
// rejection. Either way it then tightens every live candidate with the
// pivot's row against [lo, hi] and drops those with g > τ. After that it
// repeatedly takes the live non-pivot with the smallest (g, corpus index),
// stops once g > τ, and evaluates it through the metric's ladder under τ.
// Masked positions are never offered; a masked non-pivot is skipped
// unevaluated.
func modelLAESA(la *LAESA, q []rune, k int, bound float64, radius bool, mask Mask) ([]Result, Stats) {
	n := len(la.corpus)
	rowOf := map[int]int{}
	for r, p := range la.pivots {
		rowOf[p] = r
	}
	var hits []Result
	var st Stats
	tau := bound
	offer := func(i int, d float64) {
		if !(d <= tau) || mask.Has(i) {
			return
		}
		hits = append(hits, Result{Index: i, Distance: d})
		sort.Slice(hits, func(a, b int) bool {
			if hits[a].Distance != hits[b].Distance {
				return hits[a].Distance < hits[b].Distance
			}
			return hits[a].Index < hits[b].Index
		})
		if !radius && len(hits) >= k {
			hits = hits[:k]
			tau = hits[k-1].Distance
		}
	}
	g := make([]float64, n)
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	smallest := func(pivot bool) int {
		best := -1
		for i := range n {
			if _, isPivot := rowOf[i]; live[i] && isPivot == pivot && (best < 0 || g[i] < g[best]) {
				best = i
			}
		}
		return best
	}
	staged, _ := la.m.(metric.Staged)
	bracketed := metric.EditBracket(la.m) != nil
	for u := smallest(true); u >= 0; u = smallest(true) {
		live[u] = false
		st.Computations++
		var lo, hi float64
		if !bracketed || math.IsInf(tau, 1) {
			lo = la.m.Distance(q, la.corpus[u])
			hi = lo
			offer(u, lo)
		} else if lo, hi = modelBracket(q, la.corpus[u]); lo > tau {
			st.Rejections[metric.StageEdit]++
		} else if d, exact, stage := staged.DistanceStaged(q, la.corpus[u], tau); exact {
			lo, hi = d, d
			offer(u, d)
		} else {
			st.Rejections[stage]++
		}
		for v := range n {
			if !live[v] {
				continue
			}
			x := la.rows[rowOf[u]][v]
			if lb := max(lo-x, x-hi); lb > g[v] {
				g[v] = lb
			}
			if g[v] > tau {
				live[v] = false
			}
		}
	}
	for u := smallest(false); u >= 0 && g[u] <= tau; u = smallest(false) {
		live[u] = false
		if mask.Has(u) {
			continue
		}
		st.Computations++
		if staged == nil {
			offer(u, la.m.Distance(q, la.corpus[u]))
			continue
		}
		d, exact, stage := staged.DistanceStaged(q, la.corpus[u], tau)
		if !exact {
			st.Rejections[stage]++
			continue
		}
		offer(u, d)
	}
	if hits == nil {
		hits = []Result{}
	}
	return hits, st
}

// TestLAESAMatchesModel compares LAESA.Query with modelLAESA, hits and
// Stats exactly, over seeded random corpora on two- and three-letter
// alphabets, where equal bounds and equal distances are the common case:
// under dC, dE and dmax; with 0, 1, 8 and n pivots; for k-NN at k = 1, 3
// and 10, a k-NN query under a finite bound and a radius query; with no
// mask and with a random one. A dmin case adds the empty string to the
// corpus and the queries: its distance to every other string is +Inf, so
// bounds of +Inf and NaN (|Inf − Inf|) arise, and a NaN must never become
// a bound.
func TestLAESAMatchesModel(t *testing.T) {
	inf := math.Inf(1)
	metrics := []metric.Metric{metric.Contextual(), metric.Levenshtein(), metric.MaxNormalised(), metric.MinNormalised()}
	for _, m := range metrics {
		radius := 0.3
		if m.Name() == "dE" {
			radius = 2
		}
		for seed, alphabet := range []string{"ab", "abc", "ab"} {
			rng := rand.New(rand.NewSource(int64(140 + seed)))
			corpus := randomCorpus(rng, 60, 6, []rune(alphabet))
			queries := randomCorpus(rng, 12, 7, []rune(alphabet))
			if m.Name() == "dmin" {
				corpus = append(corpus, []rune{})
				queries = append(queries, []rune{})
			}
			masks := []Mask{nil, NewMask(len(corpus))}
			for i := range corpus {
				if rng.Intn(5) == 0 {
					masks[1].Set(i)
				}
			}
			lin := NewLinear(corpus, m)
			for _, pivots := range []int{0, 1, 8, len(corpus)} {
				la := NewLAESA(corpus, m, pivots, MaxSum, int64(seed))
				for qi, q := range queries {
					finite := lin.KNearest(q, 5)[2].Distance
					reqs := []Request{KNN(1, inf), KNN(3, inf), KNN(10, inf), KNN(3, finite), Within(radius)}
					for _, req := range reqs {
						for mi, mask := range masks {
							name := fmt.Sprintf("%s/%s/pivots=%d/q%d/k=%d,bound=%g,radius=%v/mask%d",
								m.Name(), alphabet, pivots, qi, req.K(), req.Bound(), req.IsRadius(), mi)
							got, err := la.Query(context.Background(), q, req.Excluding(mask))
							if err != nil {
								t.Fatal(err)
							}
							hits, st := modelLAESA(la, q, req.K(), req.Bound(), req.IsRadius(), mask)
							if got.Hits == nil {
								got.Hits = []Result{}
							}
							if !slices.Equal(got.Hits, hits) || got.Stats != st {
								t.Fatalf("%s:\n got %v %+v\nwant %v %+v", name, got.Hits, got.Stats, hits, st)
							}
						}
					}
				}
			}
		}
	}
}
