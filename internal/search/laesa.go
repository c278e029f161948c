package search

import (
	"context"
	"math"
	"slices"
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
// eliminate candidates without computing their distance to the query. A
// query first evaluates pivots, then walks the surviving non-pivots (see
// Query); both phases take candidates in (bound, corpus index) order, so
// equal bounds resolve by corpus index. A radius query walks its
// survivors in corpus order, which evaluates the same candidates.
//
// When the underlying distance is not a metric (dmax, dmin and dsum, which
// break the triangle inequality, and dC,h, which is not proven to satisfy
// it), the lower bounds are not sound and LAESA may return a non-nearest
// neighbour; the paper knowingly runs those distances through LAESA anyway
// and compares error rates, and so does this implementation.
type LAESA struct {
	corpus [][]rune
	m      metric.Metric // the shared metric (exact pivot evaluations, persistence)
	eval   evaluator
	// bracket bounds a pivot's distance from one dE (metric.EditBracket),
	// nil when the metric has no such bracket.
	bracket func(a, b []rune) (lo, hi float64)
	pivots  []int       // corpus indices of the base prototypes
	rows    [][]float64 // rows[p][i] = d(corpus[pivots[p]], corpus[i])
	rowOf   []int       // rowOf[i] = row index of pivot i, -1 for non-pivots

	// pivotOrder lists the pivots' corpus indices in ascending order: the
	// live list every query's pivot phase starts from.
	pivotOrder []int

	// scratch recycles the per-query bound/candidate slices across queries
	// (and across concurrent queriers), so steady-state searches allocate
	// only their results.
	scratch sync.Pool

	// PreprocessComputations is the number of distance evaluations spent
	// building the pivot matrix (and, for free, selecting the pivots).
	PreprocessComputations int
}

// newLAESA assembles a LAESA from selected pivots and their rows, deriving
// the rowOf lookup table and the corpus-ordered pivot list the query loop
// reads.
func newLAESA(corpus [][]rune, m metric.Metric, pivots []int, rows [][]float64, comps int) *LAESA {
	order := slices.Clone(pivots)
	slices.Sort(order)
	return &LAESA{
		corpus:                 corpus,
		m:                      m,
		eval:                   newEvaluator(m),
		bracket:                metric.EditBracket(m),
		pivots:                 pivots,
		rows:                   rows,
		rowOf:                  rowOfPivots(len(corpus), pivots),
		pivotOrder:             order,
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
// A query runs in two phases (see Query). The pivot phase evaluates base
// prototypes, smallest (bound, corpus index) first, since their distances
// feed the triangle-inequality bounds of the remaining candidates; it
// scans only the pivots. Under dC, once the pruning bound is finite, a
// pivot is first bracketed by its edit distance and evaluated only when
// the bracket admits it as a hit. The walk phase then visits the
// surviving non-pivots once: a k-NN query in (bound, corpus index) order,
// a radius query in corpus order. When the metric implements
// metric.Staged the walk evaluates each under the current pruning bound: a
// candidate whose distance provably exceeds the bound is rejected at a
// fraction of a full evaluation. Bounded evaluations count as ordinary
// distance computations (they are evaluations; only their internal work
// shrinks), so the comps/query statistics stay comparable with the
// paper's.
func NewLAESA(corpus [][]rune, m metric.Metric, numPivots int, strategy PivotStrategy, seed int64) *LAESA {
	return NewLAESAWorkers(corpus, m, numPivots, strategy, seed, 0)
}

// NewLAESAWorkers is NewLAESA with an explicit preprocessing worker count:
// each pivot row is evaluated in parallel over workers striped goroutines,
// one private metric session per worker. workers <= 0 uses all CPUs; the
// resulting index — pivots, rows and PreprocessComputations — is
// bit-identical to a workers = 1 build for the same seed.
func NewLAESAWorkers(corpus [][]rune, m metric.Metric, numPivots int, strategy PivotStrategy, seed int64, workers int) *LAESA {
	pivots, rows := selectPivots(len(corpus), numPivots, strategy, seed, metricRows(corpus, m, workers))
	return newLAESA(corpus, m, pivots, rows, len(pivots)*(len(corpus)-1))
}

// laesaScratch is the per-query scratch of the LAESA query loop: the live
// pivots, the lower bounds g, the survivors, and the radix sort's second
// buffer and digit histograms.
type laesaScratch struct {
	live []int
	g    []float64
	surv []int
	tmp  []int
	hist [8][256]int32
}

// checkoutScratch returns scratch sized for the corpus, recycled through
// the index's pool: live holds every pivot in corpus order, g is zeroed
// and surv is empty. Pair with s.scratch.Put(sc) when the query is done.
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
		sc.surv = make([]int, n)
		sc.tmp = make([]int, n)
	}
	sc.g = sc.g[:n]
	clear(sc.g)
	sc.live = append(sc.live[:0], s.pivotOrder...)
	sc.surv = sc.surv[:0]
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

// Query answers req with the LAESA elimination loop, in two phases.
//
// The loop keeps a lower bound g[u] = max over computed pivots p of
// |d(q,p) − d(p,u)| for every candidate u, and eliminates every candidate
// whose bound exceeds the pruning bound τ (the radius, or the k-th best
// distance so far).
//
//  1. Pivot phase. While a live base prototype remains, select the one
//     with the smallest (g, corpus index), compute its distance, tighten
//     every bound with its row in one pass, and eliminate the live pivots
//     whose bound exceeds τ. Selection and elimination scan only the
//     pivots. While τ = +Inf, and for every metric without a bracket
//     (metric.EditBracket), the distance is exact. Otherwise one exact dE
//     brackets it, lo ≤ d(q, p) ≤ hi, and the row tightens each bound to
//     max(lo − d(p, u), d(p, u) − hi); only when lo ≤ τ, so that p can be
//     a hit, is p evaluated through the ladder under τ, and an exact value
//     then replaces the bracket. The bracket and its continuation count
//     as one computation, and a bracket with lo > τ as an edit-rung
//     rejection.
//  2. Walk phase. Only pivots tighten bounds, so once none is live every
//     non-pivot's bound is final, and the survivors are the non-pivots
//     with g ≤ τ. A k-NN query evaluates them in (g, corpus index) order
//     under the current τ, stopping at the first g > τ. A radius query's
//     τ is fixed, so it evaluates every survivor, in corpus order.
//
// The walk evaluates exactly the candidates that selecting the smallest
// live (g, corpus index) and eliminating after every evaluation would,
// since g only grows and τ only shrinks: a candidate eliminated at some
// step ends with g above the final τ. For k = 1 this is the 1-NN search of
// the paper; larger k eliminates less, since τ is the k-th best rather
// than the best (k-NN is intrinsically more expensive).
//
// Positions excluded from req (Request.Excluding) are never returned. A
// masked pivot is still evaluated, since its distance tightens the bounds;
// a masked non-pivot is skipped before it is evaluated.
func (s *LAESA) Query(ctx context.Context, q []rune, req Request) (Answer, error) {
	n := len(s.corpus)
	c := newCollector(ctx, req, n)
	if c.done(n) {
		return c.answer()
	}
	sc := s.checkoutScratch()
	defer s.scratch.Put(sc)

	// Pivot phase: a pivot's distance, or the bracket around it, tightens
	// every remaining bound. Each evaluated pivot's row tightens g in one
	// dense, branch-free pass, lb = max(lo − x, x − hi), which is |d − x|
	// for an exact d; a NaN lb (|Inf − Inf|) never enters g, and g stays
	// ≥ +0, so math.Float64bits orders it numerically.
	live, g := sc.live, sc.g
	for len(live) > 0 {
		if c.chk.Hit() {
			return c.answer()
		}
		sel := 0
		for i := 1; i < len(live); i++ {
			if g[live[i]] < g[live[sel]] {
				sel = i
			}
		}
		u := live[sel]
		var lo, hi float64
		if s.bracket == nil || math.IsInf(c.tau, 1) {
			c.st.Computations++
			lo = s.m.Distance(q, s.corpus[u])
			hi = lo
			c.offer(u, lo)
		} else if lo, hi = s.bracket(q, s.corpus[u]); lo <= c.tau {
			if d, exact := c.eval(s.eval, q, s.corpus[u], c.tau); exact {
				lo, hi = d, d
				c.offer(u, d)
			}
		} else {
			c.st.Computations++
			c.st.Rejections[metric.StageEdit]++
		}
		for v, x := range s.rows[s.rowOf[u]][:len(g)] {
			if lb := max(lo-x, x-hi); lb == lb {
				g[v] = max(g[v], lb)
			}
		}
		w := live[:0]
		for i, v := range live {
			if i != sel && g[v] <= c.tau {
				w = append(w, v)
			}
		}
		live = w
	}

	// Only pivots tighten bounds, so every non-pivot's bound is final.
	surv := sc.surv
	for v, gv := range g {
		if gv <= c.tau && s.rowOf[v] < 0 && !c.mask.Has(v) {
			surv = append(surv, v)
		}
	}

	// Walk phase: non-pivots only race τ, so τ caps how much of each
	// evaluation matters.
	if !c.all {
		surv = sc.sortByBound(surv)
	}
	for _, u := range surv {
		if c.chk.Hit() || g[u] > c.tau {
			break
		}
		if d, exact := c.eval(s.eval, q, s.corpus[u], c.tau); exact {
			c.offer(u, d)
		}
	}
	return c.answer()
}

// sortByBound orders idx, which holds corpus indices in ascending order, by
// (g, corpus index): a stable LSD radix sort on math.Float64bits(g), which
// orders non-negative bounds numerically, so ties keep corpus order. A
// digit every key shares is skipped. The result is idx or sc.tmp.
func (sc *laesaScratch) sortByBound(idx []int) []int {
	if len(idx) < 2 {
		return idx
	}
	g, h := sc.g, &sc.hist
	*h = [8][256]int32{}
	for _, i := range idx {
		b := math.Float64bits(g[i])
		h[0][byte(b)]++
		h[1][byte(b>>8)]++
		h[2][byte(b>>16)]++
		h[3][byte(b>>24)]++
		h[4][byte(b>>32)]++
		h[5][byte(b>>40)]++
		h[6][byte(b>>48)]++
		h[7][byte(b>>56)]++
	}
	src, dst := idx, sc.tmp[:len(idx)]
	for d := range h {
		shift := 8 * d
		hd := &h[d]
		if hd[byte(math.Float64bits(g[src[0]])>>shift)] == int32(len(src)) {
			continue
		}
		var sum int32
		for j, cnt := range hd {
			hd[j] = sum
			sum += cnt
		}
		for _, i := range src {
			b := byte(math.Float64bits(g[i]) >> shift)
			dst[hd[b]] = i
			hd[b]++
		}
		src, dst = dst, src
	}
	return src
}
