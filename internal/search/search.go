// Package search implements the nearest-neighbour searchers of the paper's
// evaluation: LAESA (the algorithm used in §4.3–§4.4), plus AESA, an
// exhaustive linear scan and a BK-tree, which the serving layers also
// offer (shard.Kinds), and a vantage-point tree and a trie, which only the
// searcher ablation and the exactness tests build.
//
// Every searcher is an Index and answers through one call, Query, which
// runs a bounded k-NN query (KNN) or a radius query (Within) over the
// searcher's single traversal. The traversal feeds one shared accumulator:
// top-k under a shrinking pruning bound, or every hit under a fixed radius.
// Hits come back ordered by (distance, corpus index) — the linear scan's
// order — so every index breaks equal-distance ties identically. Each
// Answer reports the work spent, whether or not anything was found: the
// number of distance evaluations (the cost measure of Figures 3 and 4;
// distance computations dominate search time for edit distances) and the
// bound-ladder rung that rejected each bailed evaluation. Search and
// KNearest are one-line conveniences over Query.
package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"ced/internal/cancel"
	"ced/internal/metric"
)

// Result is one answer element.
type Result struct {
	// Index is the element's position in the corpus, or -1 for the
	// nearest neighbour of an empty corpus.
	Index int
	// Distance is the distance from the query to the element.
	Distance float64
}

// Stats is the work one query spent.
type Stats struct {
	// Computations is the number of metric evaluations (visited nodes for
	// the trie).
	Computations int
	// Rejections counts the evaluations a bounded rejection resolved, by
	// the ladder rung that decided them (see metric.Staged). Rejected
	// candidates still count in Computations — a bounded evaluation is an
	// evaluation — but each rung prices them differently, from O(1) length
	// checks to an abandoned exact DP. All zero when the metric reports no
	// stages.
	Rejections metric.StageCounts
}

// Add accumulates another query's work into s (cross-shard and batch
// totals).
func (s *Stats) Add(o Stats) {
	s.Computations += o.Computations
	for i, n := range o.Rejections {
		s.Rejections[i] += n
	}
}

// Answer is the outcome of one Query: the hits, ordered by (distance,
// index), and the work spent finding them.
type Answer struct {
	Hits []Result
	Stats
}

// Nearest is Search's answer: the nearest corpus element (Index -1 when the
// corpus is empty) and the work spent finding it.
type Nearest struct {
	Result
	Stats
}

// Request describes one query. Build it with KNN or Within: a pruning bound
// of 0 and a radius of 0 are both legal questions, so the zero Request asks
// for nothing and answers empty. "No bound" is +Inf.
type Request struct {
	k      int     // the k-NN result count (0 for a radius query)
	bound  float64 // the k-NN pruning bound, or the radius
	radius bool
	mask   Mask // corpus positions no hit may name (nil: none)
}

// KNN asks for the k nearest elements among those within distance bound of
// the query. bound = +Inf is a plain k-NN query; a finite bound is the
// running k-th-best distance of corpora merged earlier, so elements beyond
// it — never competitive — are rejected from the first evaluation on.
func KNN(k int, bound float64) Request { return Request{k: k, bound: bound} }

// Within asks for every element within distance r of the query
// (inclusive).
func Within(r float64) Request { return Request{bound: r, radius: true} }

// Excluding returns r with the corpus positions in m excluded from its
// hits: a k-NN query answers the k nearest of the rest, so the excluded
// positions cannot crowd them out. m belongs to the index queried (a
// shard's deleted base elements); the wire never carries it.
func (r Request) Excluding(m Mask) Request {
	r.mask = m
	return r
}

// K returns a k-NN request's result count (0 for a radius query).
func (r Request) K() int { return r.k }

// Bound returns the distance no hit exceeds: a k-NN request's pruning
// bound, or a radius query's radius.
func (r Request) Bound() float64 { return r.bound }

// IsRadius reports whether r is a radius query.
func (r Request) IsRadius() bool { return r.radius }

// Validate rejects the requests no client means: a k-NN query for no
// results, and a k-NN bound or a radius that is negative or NaN. Indexes
// answer each with nothing; the serving layers report them to the client
// instead.
func (r Request) Validate() error {
	if r.radius && !(r.bound >= 0) {
		return fmt.Errorf("radius must be non-negative (got %g)", r.bound)
	}
	if !r.radius && r.k <= 0 {
		return fmt.Errorf("k must be positive (got %d)", r.k)
	}
	if !r.radius && !(r.bound >= 0) {
		return fmt.Errorf("bound must be non-negative (got %g)", r.bound)
	}
	return nil
}

// Mask is a set of corpus positions, one bit per position; the nil Mask
// holds none.
type Mask []uint64

// NewMask returns an empty mask over n positions.
func NewMask(n int) Mask { return make(Mask, (n+63)/64) }

// Set adds position i, which must be below the n the mask was made for.
func (m Mask) Set(i int) { m[i>>6] |= 1 << (i & 63) }

// Has reports whether position i is in m.
func (m Mask) Has(i int) bool { return i>>6 < len(m) && m[i>>6]&(1<<(i&63)) != 0 }

// Index is a nearest-neighbour searcher over a fixed corpus. Queries do not
// mutate the index, so concurrent queries are safe.
type Index interface {
	// Name identifies the search algorithm (e.g. "laesa").
	Name() string
	// Size returns the number of corpus elements.
	Size() int
	// Query answers req for q. It polls ctx every few candidates (see
	// internal/cancel): a cancelled query returns the context's error with
	// the work spent so far and no hits — a partial answer is not an
	// answer. With an uncancellable context the answer is bit-identical.
	// No hit names a position req excludes (Request.Excluding).
	Query(ctx context.Context, q []rune, req Request) (Answer, error)
	// Search returns the nearest corpus element to q: Query with KNN(1, +Inf).
	Search(q []rune) Nearest
	// KNearest returns the k nearest corpus elements, closest first: Query
	// with KNN(k, +Inf).
	KNearest(q []rune, k int) []Result
}

var (
	_ Index = (*Linear)(nil)
	_ Index = (*LAESA)(nil)
	_ Index = (*AESA)(nil)
	_ Index = (*VPTree)(nil)
	_ Index = (*BKTree)(nil)
	_ Index = (*Trie)(nil)
)

// nearest and kNearest are the bodies of every searcher's Search and
// KNearest. Query only fails on cancellation, which context.Background
// never signals.
func nearest(ix Index, q []rune) Nearest {
	ans, _ := ix.Query(context.Background(), q, KNN(1, math.Inf(1)))
	if len(ans.Hits) == 0 {
		return Nearest{Result: Result{Index: -1}, Stats: ans.Stats}
	}
	return Nearest{Result: ans.Hits[0], Stats: ans.Stats}
}

func kNearest(ix Index, q []rune, k int) []Result {
	ans, _ := ix.Query(context.Background(), q, KNN(k, math.Inf(1)))
	return ans.Hits
}

// collector is the accumulator every traversal answers through. tau is the
// traversal's pruning bound: fixed at the radius for a radius query; for a
// k-NN query it starts at the request's bound and shrinks to the k-th best
// distance once k hits are held. Elements beyond tau are never hits, so a
// traversal may offer any exactly evaluated element. Hits are kept by
// (distance, index), which makes every index break ties like Linear. An
// excluded position is never offered, so it never tightens tau either.
type collector struct {
	k    int  // k-NN result cap
	all  bool // radius query: every hit within tau
	tau  float64
	mask Mask // positions excluded from the hits
	hits []Result
	st   Stats
	chk  *cancel.Check
}

// newCollector starts the answer to req over a corpus of n elements.
func newCollector(ctx context.Context, req Request, n int) collector {
	c := collector{k: req.k, all: req.radius, tau: req.bound, mask: req.mask, chk: cancel.New(ctx)}
	if !c.all && c.k > 0 && n > 0 {
		c.hits = make([]Result, 0, min(c.k, n))
	}
	return c
}

// done reports whether the query is answered before the traversal starts:
// an empty corpus, or a k-NN request for nothing.
func (c *collector) done(n int) bool {
	return n == 0 || !c.all && c.k <= 0
}

// offer records an exactly evaluated element. Only a distance at most tau
// is a hit, so a NaN tau answers nothing.
func (c *collector) offer(idx int, d float64) {
	if !(d <= c.tau) || c.mask.Has(idx) {
		return
	}
	if c.all {
		c.hits = append(c.hits, Result{Index: idx, Distance: d})
		return
	}
	pos, _ := slices.BinarySearchFunc(c.hits, Result{Index: idx, Distance: d}, cmpResult)
	if len(c.hits) < c.k {
		c.hits = append(c.hits, Result{})
	} else if pos >= c.k {
		return
	}
	copy(c.hits[pos+1:], c.hits[pos:])
	c.hits[pos] = Result{Index: idx, Distance: d}
	if len(c.hits) == c.k {
		c.tau = c.hits[c.k-1].Distance
	}
}

// eval evaluates candidate x under cutoff through e, counting the
// evaluation and a bail's rung. exact false proves d(q, x) > cutoff; d is
// then only the metric's bail value.
func (c *collector) eval(e evaluator, q, x []rune, cutoff float64) (d float64, exact bool) {
	c.st.Computations++
	if e.st == nil {
		return e.m.Distance(q, x), true
	}
	d, exact, stage := e.st.DistanceStaged(q, x, cutoff)
	if !exact {
		c.st.Rejections[stage]++
	}
	return d, exact
}

// answer finishes the query: a cancelled traversal keeps its work but loses
// its hits.
func (c *collector) answer() (Answer, error) {
	if c.chk.Stopped() {
		return Answer{Stats: c.st}, c.chk.Err()
	}
	if c.all {
		slices.SortFunc(c.hits, cmpResult)
	}
	return Answer{Hits: c.hits, Stats: c.st}, nil
}

// cmpResult orders results by (distance, index).
func cmpResult(a, b Result) int {
	if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// evaluator evaluates candidates through the metric's staged bound ladder
// when it has one (metric.Staged), and exactly otherwise. Each searcher
// decides what cutoff makes a bail sound for its own pruning rule (see the
// comments where the cutoffs are built).
type evaluator struct {
	m  metric.Metric
	st metric.Staged // nil when m evaluates only exactly
}

func newEvaluator(m metric.Metric) evaluator {
	st, _ := m.(metric.Staged)
	return evaluator{m: m, st: st}
}

// Linear is the exhaustive searcher: every query evaluates every corpus
// element it does not exclude. It is the baseline of Table 2 ("exhaustive
// search") and the correctness oracle for the other searchers. Every
// candidate is still *evaluated* — Computations is the corpus size, less
// the excluded positions — but under a
// staged metric each evaluation runs against the pruning bound, so the
// misses that dominate an exhaustive scan are priced by the bound ladder
// instead of a full distance program. Answers are identical with or without
// bounding: a bail is a proof the candidate cannot matter.
type Linear struct {
	corpus [][]rune
	eval   evaluator
}

// NewLinear builds an exhaustive searcher over corpus.
func NewLinear(corpus [][]rune, m metric.Metric) *Linear {
	return &Linear{corpus: corpus, eval: newEvaluator(m)}
}

// Name returns "linear".
func (s *Linear) Name() string { return "linear" }

// Size returns the corpus size.
func (s *Linear) Size() int { return len(s.corpus) }

// Search returns the nearest neighbour of q.
func (s *Linear) Search(q []rune) Nearest { return nearest(s, q) }

// KNearest returns the k nearest corpus elements, closest first.
func (s *Linear) KNearest(q []rune, k int) []Result { return kNearest(s, q, k) }

// Query scans the whole corpus in order, evaluating each candidate that
// req does not exclude under the current pruning bound.
func (s *Linear) Query(ctx context.Context, q []rune, req Request) (Answer, error) {
	c := newCollector(ctx, req, len(s.corpus))
	if c.done(len(s.corpus)) {
		return c.answer()
	}
	for i, x := range s.corpus {
		if c.chk.Hit() {
			break
		}
		if c.mask.Has(i) {
			continue
		}
		if d, exact := c.eval(s.eval, q, x, c.tau); exact {
			c.offer(i, d)
		}
	}
	return c.answer()
}
