// Package ced implements the contextual normalised edit distance of
// de la Higuera and Micó ("A Contextual Normalised Edit Distance", ICDE
// 2008), together with the full experimental apparatus of the paper: the
// normalised edit distances it compares against, LAESA-family
// nearest-neighbour search, synthetic versions of the paper's three
// datasets, and nearest-neighbour classification.
//
// The contextual distance dC divides the cost of each edit operation by the
// length of the string it is applied to, so edits on long strings cost less
// than edits on short ones. Unlike most length normalisations, dC is a true
// metric (it satisfies the triangle inequality), which makes it usable with
// metric-space search structures:
//
//	m := ced.Contextual()
//	d := m.Distance("ababa", "baab") // 8/15
//
// For bulk work there is a quadratic-time heuristic, ced.ContextualHeuristic,
// that equals the exact distance on the vast majority of pairs and never
// undershoots it.
//
// Strings are compared symbol-by-symbol as []rune; multi-byte UTF-8 symbols
// (ñ, á, …) count as single symbols.
package ced

import (
	"ced/internal/core"
	"ced/internal/metric"
)

// Metric is a distance between strings. All implementations returned by
// this package are stateless and safe for concurrent use.
type Metric interface {
	// Name returns the paper's notation for the distance (e.g. "dC,h").
	Name() string
	// Distance returns the distance between a and b, comparing them as
	// sequences of runes.
	Distance(a, b string) float64
}

// stringMetric adapts an internal rune-based metric to the string API.
type stringMetric struct {
	m metric.Metric
}

func (s stringMetric) Name() string { return s.m.Name() }

func (s stringMetric) Distance(a, b string) float64 {
	return s.m.Distance([]rune(a), []rune(b))
}

// Contextual returns the exact contextual normalised edit distance dC
// (Algorithm 1 of the paper, pruned to the heuristic-derived edit-length
// band: O(|x|·|y|·kmax) time with kmax ≤ |x|+|y|, allocation-free at
// steady state). It is a metric.
func Contextual() Metric { return stringMetric{metric.Contextual()} }

// ContextualBounded evaluates the exact contextual distance under a
// cutoff. It returns (dC(a, b), true) whenever dC(a, b) ≤ cutoff;
// otherwise it may abandon the evaluation as soon as the distance is
// provably above the cutoff, returning (v, false) with an upper bound
// v satisfying cutoff < v and dC(a, b) ≤ v. Use it to resolve "is this
// candidate within radius r?" questions at a fraction of a full
// evaluation; the nearest-neighbour indexes in this package already do so
// internally when searching under dC.
func ContextualBounded(a, b string, cutoff float64) (float64, bool) {
	return core.DistanceBounded([]rune(a), []rune(b), cutoff)
}

// ContextualHeuristic returns the quadratic-time heuristic dC,h (§4.1 of
// the paper). It never undershoots dC and equals it on ~90% of pairs; the
// paper uses it for all large experiments.
func ContextualHeuristic() Metric { return stringMetric{metric.ContextualHeuristic()} }

// Levenshtein returns the classical (unit-cost) edit distance dE.
func Levenshtein() Metric { return stringMetric{metric.Levenshtein()} }

// YujianBo returns the Yujian–Bo normalised metric
// dYB = 2·dE/(|x|+|y|+dE) (TPAMI 2007).
func YujianBo() Metric { return stringMetric{metric.YujianBo()} }

// MarzalVidal returns the exact Marzal–Vidal normalised edit distance
// dMV = min over alignment paths of weight/length (TPAMI 1993). With the
// unit costs used here it is a metric (Fisman, Grogin and Margalit,
// arXiv:2201.06115).
func MarzalVidal() Metric { return stringMetric{metric.MarzalVidal()} }

// MaxNormalised returns dmax = dE/max(|x|,|y|). Not a metric, but the best
// classifier in the paper's Table 2.
func MaxNormalised() Metric { return stringMetric{metric.MaxNormalised()} }

// MinNormalised returns dmin = dE/min(|x|,|y|). Not a metric.
func MinNormalised() Metric { return stringMetric{metric.MinNormalised()} }

// SumNormalised returns dsum = dE/(|x|+|y|). Not a metric.
func SumNormalised() Metric { return stringMetric{metric.SumNormalised()} }

// ByName resolves a distance by name. Canonical names are those of the
// paper ("dE", "dC", "dC,h", "dYB", "dMV", "dmax", "dmin", "dsum"); short
// aliases like "ch" or "yb" are accepted, case-insensitively.
func ByName(name string) (Metric, error) {
	m, err := metric.ByName(name)
	if err != nil {
		return nil, err
	}
	return stringMetric{m}, nil
}

// Names returns the canonical names accepted by ByName, sorted.
func Names() []string { return metric.Names() }

// Decomposition describes the optimal edit path found by the contextual
// distance: how many operations it used and how they split into
// insertions, substitutions and deletions (performed in that order — the
// paper's Lemma 1 shows insert-first is always optimal).
type Decomposition struct {
	// Distance is the contextual distance realised by the path.
	Distance float64
	// Operations is the number of unit edit operations on the path.
	Operations int
	// Insertions, Substitutions and Deletions sum to Operations.
	Insertions    int
	Substitutions int
	Deletions     int
	// Exact reports whether the exact algorithm produced the value (true)
	// or the heuristic did (false).
	Exact bool
}

// ContextualDecompose runs the exact algorithm and reports the optimal
// path decomposition alongside the distance.
func ContextualDecompose(a, b string) Decomposition {
	return toDecomposition(core.Compute([]rune(a), []rune(b)))
}

// ContextualHeuristicDecompose reports the decomposition evaluated by the
// heuristic (whose operation count is always the plain edit distance).
func ContextualHeuristicDecompose(a, b string) Decomposition {
	return toDecomposition(core.HeuristicCompute([]rune(a), []rune(b)))
}

func toDecomposition(r core.Result) Decomposition {
	return Decomposition{
		Distance:      r.Distance,
		Operations:    r.K,
		Insertions:    r.Insertions,
		Substitutions: r.Substitutions,
		Deletions:     r.Deletions,
		Exact:         r.Exact,
	}
}

// internalMetric recovers the rune-based metric behind a facade Metric, or
// wraps a custom implementation.
func internalMetric(m Metric) metric.Metric {
	if sm, ok := m.(stringMetric); ok {
		return sm.m
	}
	return metric.New(m.Name(), func(a, b []rune) float64 {
		return m.Distance(string(a), string(b))
	})
}
