package search

import (
	"context"
	"math"

	"ced/internal/bulk"
	"ced/internal/metric"
)

// AESA is the Approximating and Eliminating Search Algorithm (Vidal 1986):
// the full corpus-by-corpus distance matrix is precomputed, so at query
// time *every* computed distance tightens the lower bounds of all remaining
// candidates. AESA achieves the fewest distance computations per query of
// the classic pivot methods at the price of O(n²) preprocessing time and
// memory — which is why the paper uses LAESA (linear preprocessing) for its
// experiments. It is a serving kind too: on some query shapes of the query
// benchmarks it is the fastest dC searcher (cf. Rico-Juan and Micó 2003,
// comparing AESA and LAESA on string edit distances).
type AESA struct {
	corpus [][]rune
	eval   evaluator
	d      [][]float64 // full symmetric distance matrix

	// PreprocessComputations is n(n-1)/2: one evaluation per unordered pair.
	PreprocessComputations int
}

// NewAESA builds the full distance matrix over corpus, fanning the rows
// over all CPUs (NewAESAWorkers controls the count).
func NewAESA(corpus [][]rune, m metric.Metric) *AESA {
	return NewAESAWorkers(corpus, m, 0)
}

// NewAESAWorkers is NewAESA with an explicit build worker count (<= 0 uses
// all CPUs). The matrix is bulk's Matrix: rows striped over the workers,
// each through a private metric session, so the matrix and
// PreprocessComputations are identical for any worker count.
func NewAESAWorkers(corpus [][]rune, m metric.Metric, workers int) *AESA {
	n := len(corpus)
	d := bulk.New(m).Matrix(corpus, workers)
	return &AESA{corpus: corpus, eval: newEvaluator(m), d: d, PreprocessComputations: n * (n - 1) / 2}
}

// Name returns "aesa".
func (s *AESA) Name() string { return "aesa" }

// Size returns the corpus size.
func (s *AESA) Size() int { return len(s.corpus) }

// aesaCutoff is the bail threshold for evaluating candidate u against the
// current pruning bound: bound plus the largest matrix entry d(u, v) over
// the live candidates (bound alone when none remain). Unlike LAESA, AESA
// needs the exact distance of every selected candidate — each one tightens
// every remaining bound through the matrix — so the query loop only bails
// when nothing is lost: d > bound + d(u, v) for every live v means the
// evaluation both misses the bound itself and would have eliminated the
// entire candidate set, so the query can stop. Candidate selection,
// elimination and the computation counts stay bit-identical to the
// unbounded loop.
func (s *AESA) aesaCutoff(u int, alive []int, bound float64) float64 {
	row := s.d[u]
	maxRow := 0.0
	for _, v := range alive {
		if row[v] > maxRow {
			maxRow = row[v]
		}
	}
	return bound + maxRow
}

// selectMin pops the live candidate with the smallest lower bound g.
func selectMin(g []float64, alive []int) (int, []int) {
	selPos := 0
	for pos, u := range alive {
		if g[u] < g[alive[selPos]] {
			selPos = pos
		}
	}
	u := alive[selPos]
	alive[selPos] = alive[len(alive)-1]
	return u, alive[:len(alive)-1]
}

// Search returns the nearest neighbour of q.
func (s *AESA) Search(q []rune) Nearest { return nearest(s, q) }

// KNearest returns the k nearest corpus elements, closest first.
func (s *AESA) KNearest(q []rune, k int) []Result { return kNearest(s, q, k) }

// Query answers req, eliminating candidates with the triangle-inequality
// bound g[u] = max |d(q,s) − d(s,u)| over every computed element s: a
// candidate is discarded once its bound exceeds the pruning bound τ (the
// radius, or the k-th best distance so far) — LAESA's elimination with
// every computed distance tightening the bounds. An excluded position is
// still evaluated, since its distance tightens the bounds, but never
// returned.
func (s *AESA) Query(ctx context.Context, q []rune, req Request) (Answer, error) {
	n := len(s.corpus)
	c := newCollector(ctx, req, n)
	if c.done(n) {
		return c.answer()
	}
	g := make([]float64, n)
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	for len(alive) > 0 {
		if c.chk.Hit() {
			break
		}
		// Approximate: candidate with the smallest lower bound.
		var u int
		u, alive = selectMin(g, alive)
		dqu, exact := c.eval(s.eval, q, s.corpus[u], s.aesaCutoff(u, alive, c.tau))
		if !exact {
			// dqu > τ + max row: no hit, and tightening would have
			// eliminated every remaining candidate — the query is decided.
			break
		}
		c.offer(u, dqu)
		// Every computed distance tightens every candidate's bound.
		row := s.d[u]
		w := alive[:0]
		for _, v := range alive {
			if lb := math.Abs(dqu - row[v]); lb > g[v] {
				g[v] = lb
			}
			if g[v] <= c.tau {
				w = append(w, v)
			}
		}
		alive = w
	}
	return c.answer()
}
