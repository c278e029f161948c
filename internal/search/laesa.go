package search

import (
	"context"
	"math"
	"sync"

	"ced/internal/metric"
)

// LAESA is the Linear Approximating and Eliminating Search Algorithm of
// Micó, Oncina and Vidal (Pattern Recognition Letters, 1994) — the fast
// nearest-neighbour searcher used throughout the paper's §4.3 and §4.4.
//
// Preprocessing computes the distances between a set of base prototypes
// ("pivots") and every corpus element: linear memory in the corpus size (for
// a fixed pivot count), unlike AESA's quadratic matrix. At query time the
// triangle inequality turns those stored distances into lower bounds that
// eliminate candidates without computing their distance to the query.
//
// When the underlying distance is not a metric (dmax, and possibly dC,h and
// dMV), the lower bounds are not sound and LAESA may return a non-nearest
// neighbour; the paper knowingly runs those distances through LAESA anyway
// and compares error rates, and so does this implementation.
type LAESA struct {
	corpus [][]rune
	m      metric.Metric // the shared metric (exact pivot evaluations, persistence)
	eval   evaluator
	pivots []int       // corpus indices of the base prototypes
	rows   [][]float64 // rows[p][i] = d(corpus[pivots[p]], corpus[i])
	rowOf  []int       // rowOf[i] = row index of pivot i, -1 for non-pivots

	// scratch recycles the per-query bound/candidate slices across queries
	// (and across concurrent queriers), so steady-state searches allocate
	// only their results.
	scratch sync.Pool

	// PreprocessComputations is the number of distance evaluations spent
	// building the pivot matrix (and, for free, selecting the pivots).
	PreprocessComputations int
}

// newLAESA assembles a LAESA from selected pivots and their rows, deriving
// the rowOf lookup table the query loop indexes instead of a map.
func newLAESA(corpus [][]rune, m metric.Metric, pivots []int, rows [][]float64, comps int) *LAESA {
	return &LAESA{
		corpus:                 corpus,
		m:                      m,
		eval:                   newEvaluator(m),
		pivots:                 pivots,
		rows:                   rows,
		rowOf:                  rowOfPivots(len(corpus), pivots),
		PreprocessComputations: comps,
	}
}

// rowOfPivots builds the dense pivot→row lookup: rowOf[i] is the row index
// of corpus element i when it is a pivot and -1 otherwise.
func rowOfPivots(n int, pivots []int) []int {
	rowOf := make([]int, n)
	for i := range rowOf {
		rowOf[i] = -1
	}
	for r, p := range pivots {
		rowOf[p] = r
	}
	return rowOf
}

// NewLAESA builds a LAESA index over corpus with numPivots base prototypes
// chosen by the given strategy (seed feeds the strategy's random choices).
// Preprocessing fans the pivot-matrix rows over all CPUs; the index is
// bit-identical for any worker count (NewLAESAWorkers controls the count).
//
// When the metric implements metric.Staged the query loop evaluates
// non-pivot candidates under the current pruning bound: a candidate whose
// distance provably exceeds the bound is rejected at a fraction of a full
// evaluation. Pivot candidates are always evaluated exactly — their
// distances feed the triangle-inequality bounds of the remaining
// candidates. Bounded evaluations count as ordinary distance computations
// (they are evaluations; only their internal work shrinks), so the
// comps/query statistics stay comparable with the paper's.
func NewLAESA(corpus [][]rune, m metric.Metric, numPivots int, strategy PivotStrategy, seed int64) *LAESA {
	return NewLAESAWorkers(corpus, m, numPivots, strategy, seed, 0)
}

// NewLAESAWorkers is NewLAESA with an explicit preprocessing worker count:
// each pivot row is evaluated in parallel over workers striped goroutines,
// one private metric session per worker. workers <= 0 uses all CPUs; the
// resulting index — pivots, rows and PreprocessComputations — is
// bit-identical to a workers = 1 build for the same seed.
func NewLAESAWorkers(corpus [][]rune, m metric.Metric, numPivots int, strategy PivotStrategy, seed int64, workers int) *LAESA {
	pivots, rows, comps := selectPivots(corpus, m, numPivots, strategy, seed, workers)
	return newLAESA(corpus, m, pivots, rows, comps)
}

// laesaScratch is the per-query scratch of the LAESA query loop: the
// triangle-inequality lower bounds g and the live-candidate list.
type laesaScratch struct {
	g     []float64
	alive []int
}

// checkoutScratch returns scratch slices sized for the corpus, recycled
// through the index's pool: g zeroed, alive reset to every corpus index.
// Pair with s.scratch.Put(sc) when the query is done.
//
//ced:poolleak-ok: ownership transfers to the caller, which defers the Put.
func (s *LAESA) checkoutScratch() *laesaScratch {
	n := len(s.corpus)
	sc, _ := s.scratch.Get().(*laesaScratch)
	if sc == nil {
		sc = &laesaScratch{}
	}
	if cap(sc.g) < n {
		sc.g = make([]float64, n)
		sc.alive = make([]int, n)
	}
	sc.g = sc.g[:n]
	for i := range sc.g {
		sc.g[i] = 0
	}
	sc.alive = sc.alive[:n]
	for i := range sc.alive {
		sc.alive[i] = i
	}
	return sc
}

// Name returns "laesa".
func (s *LAESA) Name() string { return "laesa" }

// Size returns the corpus size.
func (s *LAESA) Size() int { return len(s.corpus) }

// NumPivots returns the number of base prototypes actually selected.
func (s *LAESA) NumPivots() int { return len(s.pivots) }

// Corpus returns the indexed strings (shared backing; callers must not
// modify).
func (s *LAESA) Corpus() [][]rune { return s.corpus }

// Search returns the nearest neighbour of q.
func (s *LAESA) Search(q []rune) Nearest { return nearest(s, q) }

// KNearest returns the k nearest corpus elements, closest first.
func (s *LAESA) KNearest(q []rune, k int) []Result { return kNearest(s, q, k) }

// Query answers req with the LAESA elimination loop.
//
// The loop keeps a lower bound g[u] = max over computed pivots p of
// |d(q,p) − d(p,u)| for every live candidate u. Each iteration selects the
// live candidate with the smallest bound — preferring base prototypes while
// any remain, since only they tighten bounds — computes its distance and
// eliminates every candidate whose bound exceeds the pruning bound τ (the
// radius, or the k-th best distance so far). For k = 1 this is the 1-NN
// search of the paper; larger k eliminates less, since τ is the k-th best
// rather than the best (k-NN is intrinsically more expensive).
func (s *LAESA) Query(ctx context.Context, q []rune, req Request) (Answer, error) {
	n := len(s.corpus)
	c := newCollector(ctx, req, n)
	if c.done(n) {
		return c.answer()
	}
	sc := s.checkoutScratch()
	defer s.scratch.Put(sc)
	g, alive := sc.g, sc.alive
	pivotsLeft := len(s.pivots)

	for len(alive) > 0 {
		if c.chk.Hit() {
			break
		}
		// Select: the live pivot with the smallest bound while pivots
		// remain, otherwise the live non-pivot with the smallest bound.
		selPos := -1
		selPivot := false
		for pos, u := range alive {
			isPivot := s.rowOf[u] >= 0
			if pivotsLeft > 0 && isPivot != selPivot {
				if isPivot {
					selPos, selPivot = pos, true
				}
				continue
			}
			if selPos < 0 || g[u] < g[alive[selPos]] {
				selPos = pos
			}
		}
		u := alive[selPos]
		alive[selPos] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]

		// Pivots need their exact distance (it tightens every remaining
		// bound); non-pivots only race τ, so τ caps how much of the
		// evaluation matters.
		if row := s.rowOf[u]; row >= 0 {
			c.st.Computations++
			d := s.m.Distance(q, s.corpus[u])
			c.offer(u, d)
			pivotsLeft--
			r := s.rows[row]
			for _, v := range alive {
				if lb := math.Abs(d - r[v]); lb > g[v] {
					g[v] = lb
				}
			}
		} else if d, exact := c.eval(s.eval, q, s.corpus[u], c.tau); exact {
			c.offer(u, d)
		}
		// Eliminate.
		w := alive[:0]
		for _, v := range alive {
			if g[v] <= c.tau {
				w = append(w, v)
			} else if s.rowOf[v] >= 0 {
				pivotsLeft--
			}
		}
		alive = w
	}
	return c.answer()
}
