package ced

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"ced/internal/search"
	"ced/internal/shard"
)

// SearchResult is the outcome of a nearest-neighbour query. Its
// Computations field is the paper's cost measure: §4.3 evaluates searchers
// by distance computations per query (Figures 3 and 4), since metric
// evaluations dominate search time for edit distances.
type SearchResult struct {
	// Index is the position of the neighbour in the corpus passed at index
	// construction, or -1 for an empty corpus.
	Index int
	// Value is the neighbour itself.
	Value string
	// Distance is the query-to-neighbour distance.
	Distance float64
	// Computations is the number of distance evaluations the query spent —
	// the cost measure of the paper's Figures 3 and 4.
	Computations int
}

// Index is a nearest-neighbour search index over a fixed corpus of
// strings — the apparatus of the paper's §4.3–§4.4 experiments. Indexes
// are immutable once built and safe for concurrent queries. Every index
// breaks equal-distance ties by corpus position.
type Index struct {
	corpus   []string
	searcher search.Index
}

// Nearest returns the corpus string nearest to q — the 1-NN query of the
// paper's §4.3. Cost ranges from O(pivots + ε·n) distance computations for
// LAESA (Figure 3's vertical axis) to exactly n for a linear index.
func (ix *Index) Nearest(q string) SearchResult {
	r := ix.searcher.Search([]rune(q))
	out := SearchResult{Index: r.Index, Distance: r.Distance, Computations: r.Computations}
	if r.Index >= 0 {
		out.Value = ix.corpus[r.Index]
	}
	return out
}

// KNearest returns the k nearest corpus strings, closest first — the
// k-NN generalisation of the paper's 1-NN protocol. Every index supports
// it, pruning with a shrinking k-th-best bound so the cost approaches
// Nearest's as the corpus grows relative to k. Every result carries the
// query's total Computations.
func (ix *Index) KNearest(q string, k int) []SearchResult {
	return ix.query(q, search.KNN(k, math.Inf(1)))
}

// Radius returns every corpus string within distance r of q (inclusive),
// sorted by distance — the range query that motivates the paper's
// insistence on true metrics: triangle-inequality pruning is only sound
// when the distance is one (dC qualifies; dmax, dmin, dsum do not). Every
// index built by this package supports it.
func (ix *Index) Radius(q string, r float64) []SearchResult {
	return ix.query(q, search.Within(r))
}

func (ix *Index) query(q string, req search.Request) []SearchResult {
	ans, _ := ix.searcher.Query(context.Background(), []rune(q), req)
	out := make([]SearchResult, len(ans.Hits))
	for i, r := range ans.Hits {
		out[i] = SearchResult{Index: r.Index, Value: ix.corpus[r.Index], Distance: r.Distance, Computations: ans.Computations}
	}
	return out
}

// Len returns the corpus size in O(1).
func (ix *Index) Len() int { return ix.searcher.Size() }

// Algorithm returns the name of the underlying search algorithm
// ("laesa", "aesa", "bktree" or "linear") in O(1).
func (ix *Index) Algorithm() string { return ix.searcher.Name() }

// NewLAESA builds a LAESA index (Micó–Oncina–Vidal 1994) over corpus with
// the given number of base prototypes (pivots) — the searcher of the
// paper's §4.3–§4.4 experiments (Figures 3–4, Table 2). Preprocessing
// computes pivots×len(corpus) distances, fanned over all CPUs with one
// private metric session per worker (the index is bit-identical for any
// worker count), and stores them in O(pivots·n) memory; queries then use
// the triangle inequality to skip most distance computations (the
// per-query cost plotted on Figure 3's vertical axis).
//
// m should be a true metric (Contextual, Levenshtein, YujianBo,
// MarzalVidal) for exact results; with non-metrics (MaxNormalised,
// MinNormalised and SumNormalised, and ContextualHeuristic, which is not
// proven to be one) the neighbour may occasionally be non-nearest, exactly
// as in the paper's experiments.
func NewLAESA(corpus []string, m Metric, pivots int) *Index {
	return &Index{
		corpus:   corpus,
		searcher: search.NewLAESA(toRunes(corpus), internalMetric(m), pivots, search.MaxSum, 1),
	}
}

// NewLinear builds an exhaustive-search index: every query computes the
// distance to all n corpus elements (exactly n computations, no
// preprocessing). It is Table 2's "exhaustive search" column and the
// correctness baseline for the other indexes.
func NewLinear(corpus []string, m Metric) *Index {
	return &Index{
		corpus:   corpus,
		searcher: search.NewLinear(toRunes(corpus), internalMetric(m)),
	}
}

// NewBKTree builds a Burkhard–Keller tree index: O(n log n) expected
// preprocessing distances (batched level by level over all CPUs; the tree
// is identical to serial insertion), pruning child edges whose integer
// label falls outside [d−best, d+best]. It is the classic
// dictionary-search baseline for the paper's §4.3 comparison. The tree's
// edge labels are integers, so a fractional metric would silently corrupt
// lookups; only the integer-valued Levenshtein (dE) is accepted.
func NewBKTree(corpus []string, m Metric) (*Index, error) {
	return NewIndex("bktree", corpus, m, 0)
}

// NewIndex builds an index by algorithm name — the kinds cedserve -index
// and ServerConfig.Algorithm serve: "laesa" (with the given pivot count;
// <= 0 means 16), "aesa" (the full n×n matrix: quadratic preprocessing
// and memory), "bktree" (dE only — the BK-tree prunes on integer
// distances, so a fractional metric is rejected) or "linear". Randomised
// construction uses seed 1, so NewIndex("laesa", …) equals NewLAESA with
// the same positive pivot count.
func NewIndex(algorithm string, corpus []string, m Metric, pivots int) (*Index, error) {
	if m == nil {
		return nil, fmt.Errorf("ced: nil metric")
	}
	build, err := shard.StandardBuild(algorithm, internalMetric(m), pivots, 1, 0)
	if err != nil {
		return nil, fmt.Errorf("ced: %w", err)
	}
	return &Index{corpus: corpus, searcher: build(0, toRunes(corpus))}, nil
}

func toRunes(ss []string) [][]rune {
	out := make([][]rune, len(ss))
	for i, s := range ss {
		out[i] = []rune(s)
	}
	return out
}

// Save serialises the index so it can be reloaded without recomputing the
// preprocessing distances — the expensive part of §4.3's setup. LAESA
// (corpus, pivots and the pivots×n distance matrix) and BK-tree (corpus
// and edge labels) indexes support saving; the linear index has nothing
// worth persisting and aesa's quadratic matrix is deliberately not
// serialised.
func (ix *Index) Save(w io.Writer) error {
	err := search.Save(w, ix.searcher)
	if errors.Is(err, search.ErrNoCodec) {
		return fmt.Errorf("ced: Save is only supported for laesa and bktree indexes (this is %q)", ix.Algorithm())
	}
	return err
}

// LoadIndex restores an index written by (*Index).Save with zero distance
// computations, attaching m as the query metric; algorithm and m must
// match what the index was built with (the metric is checked by name).
func LoadIndex(algorithm string, r io.Reader, m Metric) (*Index, error) {
	s, err := search.Load(algorithm, r, internalMetric(m))
	if errors.Is(err, search.ErrNoCodec) {
		return nil, fmt.Errorf("ced: no snapshot loader for algorithm %q (known: laesa, bktree)", algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &Index{corpus: corpusOf(s), searcher: s}, nil
}

// LoadLAESAIndex restores an index written by (*Index).Save in O(pivots·n)
// time with zero distance computations, attaching m as the query metric; m
// must be the same distance the index was built with (checked by name).
func LoadLAESAIndex(r io.Reader, m Metric) (*Index, error) {
	return LoadIndex("laesa", r, m)
}

// corpusOf rebuilds the string corpus view of a loaded searcher (every kind
// with a snapshot form exposes its corpus).
func corpusOf(s search.Index) []string {
	rs := s.(interface{ Corpus() [][]rune }).Corpus()
	corpus := make([]string, len(rs))
	for i, r := range rs {
		corpus[i] = string(r)
	}
	return corpus
}
