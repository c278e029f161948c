// Package metric defines the uniform distance interface used by the search
// structures and the experiment harness, together with adapters for every
// distance studied in the paper and a name-based registry for the CLI tools.
//
// The interface operates on []rune so the hot search loops never re-decode
// UTF-8; corpora are converted once at index-build time.
package metric

import (
	"fmt"
	"sort"
	"sync"

	"ced/internal/core"
	"ced/internal/editdist"
	"ced/internal/norm"
)

// Metric is a distance function between strings of symbols. Implementations
// must be safe for concurrent use (all the ones in this repository are pure
// functions).
//
// Only some of the registered distances are true metrics (dE, dC, dYB);
// dmax, dmin, dsum violate the triangle inequality and dC,h and dMV are not
// proven metrics — the paper (and this harness) nevertheless runs them all
// through triangle-inequality-based searchers to compare behaviour.
type Metric interface {
	// Name returns the distance's display name, matching the paper's
	// notation (e.g. "dC,h").
	Name() string
	// Distance returns the distance between a and b.
	Distance(a, b []rune) float64
}

// Stage identifies the rung of the staged bound ladder that resolved one
// bounded evaluation; it aliases core.Stage so searchers and the serving
// layer index per-stage counters without importing internal/core.
type Stage = core.Stage

// StageCounts aliases core.StageCounts: per-stage evaluation counters,
// indexed by Stage.
type StageCounts = core.StageCounts

// The ladder rungs, cheapest first; NumStages sizes StageCounts.
const (
	StageLength    = core.StageLength
	StageEdit      = core.StageEdit
	StageHeuristic = core.StageHeuristic
	StageExact     = core.StageExact
	NumStages      = core.NumStages
)

// Staged is the capability interface for metrics that evaluate a distance
// under a cutoff through a staged bound ladder, abandoning work once the
// value is provably above the cutoff. DistanceBounded returns (d, true)
// with d the exact distance — guaranteed whenever the true distance is at
// most cutoff — or (v, false) when the metric proved the true distance
// exceeds cutoff without finishing the evaluation. On a bail, cutoff < v
// but v is otherwise implementation-defined (the contextual kernel returns
// an upper bound of the true distance, the banded Levenshtein engine a
// lower one): callers may act only on the proof that the true distance
// exceeds the cutoff. Triangle-inequality searchers pass their current
// pruning bound as the cutoff, so eliminated candidates cost a fraction of
// a full evaluation.
//
// DistanceStaged has exactly the DistanceBounded contract plus the Stage:
// on a rejection the cheapest rung whose lower bound cleared the cutoff, on
// an exact result the rung that produced the value. Searchers aggregate the
// stages into the per-query rejection counters surfaced by the serving
// layer.
type Staged interface {
	Metric
	DistanceBounded(a, b []rune, cutoff float64) (float64, bool)
	DistanceStaged(a, b []rune, cutoff float64) (float64, bool, Stage)
}

// Batcher is the capability interface for metrics (usually sessions) that
// can resolve one query against many candidates in a single pass:
// DistanceBatch fills out[i] = Distance(a, bs[i]) for every candidate, with
// values bit-identical to per-pair Distance calls — batching changes the
// cost, never the results. out is reused when it has the right length and
// allocated otherwise; the filled slice is returned.
//
// Batch implementations amortise per-evaluation setup across the
// candidates: the bit-parallel dE engine builds the query's pattern table
// once per batch and advances several candidates per pass (the dC session
// simply loops over its private workspace). Bulk layers
// (internal/bulk.FanBatch) detect the capability per worker session and
// fall back to per-pair Distance calls when it is absent.
type Batcher interface {
	DistanceBatch(a []rune, bs [][]rune, out []float64) []float64
}

// Sessioner is the capability interface for metrics that can mint a
// per-goroutine session holding private scratch memory (e.g. a reusable
// contextual-distance workspace, making steady-state calls allocation-free
// with no pool contention). Sessions are NOT safe for concurrent use;
// batch layers create one per worker. cedvet's sessionshare analyzer
// (internal/analysis) enforces the confinement mechanically: a session
// must not be captured by a go closure or sent on a channel
// (//ced:sessionshare-ok waives a reviewed handoff).
type Sessioner interface {
	Session() Metric
}

type funcMetric struct {
	name string
	fn   func(a, b []rune) float64
}

func (m funcMetric) Name() string                 { return m.name }
func (m funcMetric) Distance(a, b []rune) float64 { return m.fn(a, b) }

// New wraps a plain function as a Metric.
func New(name string, fn func(a, b []rune) float64) Metric {
	return funcMetric{name: name, fn: fn}
}

// levenshteinMetric is dE with bounded evaluation via the bounded
// bit-parallel Myers engine.
type levenshteinMetric struct{}

func (levenshteinMetric) Name() string { return "dE" }
func (levenshteinMetric) Distance(a, b []rune) float64 {
	return float64(editdist.Distance(a, b))
}

// DistanceBounded resolves dE against the cutoff with the early-exiting
// bit-parallel engine. Bail values are lower bounds of dE (the band only
// proves dE > k), which the Staged contract permits.
func (m levenshteinMetric) DistanceBounded(a, b []rune, cutoff float64) (float64, bool) {
	d, exact, _ := m.DistanceStaged(a, b, cutoff)
	return d, exact
}

// DistanceStaged is the staged form of DistanceBounded. dE's ladder has two
// rungs: the O(1) length-difference bound and the bounded Myers scan itself
// (dE is its own edit stage; there is no cheaper heuristic to collapse).
func (levenshteinMetric) DistanceStaged(a, b []rune, cutoff float64) (float64, bool, Stage) {
	s := edScratch.Get().(*editdist.Scratch)
	defer edScratch.Put(s) // deferred so a kernel panic cannot leak the scratch
	return levStaged(s, a, b, cutoff)
}

// Session mints a dE evaluator with a private Myers scratch: no pool
// round-trip per call, and the pattern tables stay warm across a worker's
// whole stripe. Values, stages and exactness are identical to the plain
// metric's — levStaged is shared — so search pruning statistics cannot
// depend on whether a session was used.
func (levenshteinMetric) Session() Metric {
	return &levenshteinSession{}
}

// levStaged is the single staged dE evaluation, shared by the pooled metric
// and the per-worker sessions.
func levStaged(s *editdist.Scratch, a, b []rune, cutoff float64) (float64, bool, Stage) {
	if cutoff < 0 {
		return 0, false, StageLength // dE >= 0 > cutoff; 0 is the trivial lower bound
	}
	longest, gap := len(a), len(a)-len(b)
	if len(b) > longest {
		longest, gap = len(b), -gap
	}
	k := longest // dE <= max(|a|,|b|): at this bound the scan is definite
	if cutoff < float64(longest) {
		k = int(cutoff) // floor: dE is integer-valued, so d <= cutoff iff d <= k
		if gap > k {
			return float64(gap), false, StageLength // dE >= gap = k+1 > cutoff at least
		}
	}
	d := s.MyersBounded(a, b, k)
	if d <= k {
		return float64(d), true, StageEdit
	}
	return float64(d), false, StageEdit // d = k+1 > cutoff, and dE >= k+1
}

// edScratch recycles bounded-Myers scratch (the non-ASCII pattern table,
// the long-pattern band rows) across the stateless dE metric's bounded
// evaluations, keeping them allocation-free at steady state.
var edScratch = sync.Pool{New: func() any { return new(editdist.Scratch) }}

// Levenshtein returns the plain edit distance dE. It implements Staged
// through the early-exiting bit-parallel Myers
// engine (O(k·min(|a|,|b|)) banded fallback for patterns beyond a machine
// word), Sessioner (per-worker scratch) and, via its sessions, Batcher
// (the multi-candidate kernel).
func Levenshtein() Metric {
	return levenshteinMetric{}
}

// levenshteinSession is a dE evaluator bound to a private Myers scratch,
// with batch evaluation through the multi-candidate kernel. Not safe for
// concurrent use.
type levenshteinSession struct {
	sc editdist.Scratch
	ks []int // per-candidate bounds for the batch kernel
	ds []int // integer batch results, converted into the caller's out
}

func (s *levenshteinSession) Name() string { return "dE" }

// Distance resolves the exact dE with the session's bit-parallel engine:
// at k = max(|a|,|b|) the bounded scan is always definite, and its value is
// identical to the reference row DP (the editdist fuzz pins this), so
// sessions are a pure cost optimisation.
func (s *levenshteinSession) Distance(a, b []rune) float64 {
	longest := len(a)
	if len(b) > longest {
		longest = len(b)
	}
	return float64(s.sc.MyersBounded(a, b, longest))
}

func (s *levenshteinSession) DistanceBounded(a, b []rune, cutoff float64) (float64, bool) {
	d, exact, _ := levStaged(&s.sc, a, b, cutoff)
	return d, exact
}

func (s *levenshteinSession) DistanceStaged(a, b []rune, cutoff float64) (float64, bool, Stage) {
	return levStaged(&s.sc, a, b, cutoff)
}

// DistanceBatch resolves the query against every candidate with the
// multi-candidate Myers kernel: the query's pattern table is built once for
// the batch and the candidates advance several lanes per pass. Each bound
// is the definite k = max(|a|,|bs[i]|), so every lane resolves the exact
// dE.
func (s *levenshteinSession) DistanceBatch(a []rune, bs [][]rune, out []float64) []float64 {
	if cap(s.ks) < len(bs) {
		s.ks = make([]int, len(bs))
	}
	ks := s.ks[:len(bs)]
	for i, b := range bs {
		k := len(a)
		if len(b) > k {
			k = len(b)
		}
		ks[i] = k
	}
	if cap(s.ds) < len(bs) {
		s.ds = make([]int, len(bs))
	}
	s.ds = s.sc.MyersBoundedBatch(a, bs, ks, s.ds[:len(bs)])
	if len(out) != len(bs) {
		out = make([]float64, len(bs))
	}
	for i, d := range s.ds {
		out[i] = float64(d)
	}
	return out
}

// contextualMetric is the exact dC with bounded evaluation and private
// workspace sessions, backed by the banded pooled kernel in internal/core.
type contextualMetric struct{}

func (contextualMetric) Name() string                 { return "dC" }
func (contextualMetric) Distance(a, b []rune) float64 { return core.Distance(a, b) }
func (contextualMetric) DistanceBounded(a, b []rune, cutoff float64) (float64, bool) {
	return core.DistanceBounded(a, b, cutoff)
}
func (contextualMetric) DistanceStaged(a, b []rune, cutoff float64) (float64, bool, Stage) {
	return core.DistanceBoundedStaged(a, b, cutoff)
}
func (contextualMetric) Session() Metric {
	return &contextualSession{ws: core.NewWorkspace()}
}

// contextualSession is a dC evaluator bound to a private workspace. Not
// safe for concurrent use.
type contextualSession struct {
	ws *core.Workspace
}

func (s *contextualSession) Name() string                 { return "dC" }
func (s *contextualSession) Distance(a, b []rune) float64 { return s.ws.Distance(a, b) }
func (s *contextualSession) DistanceBounded(a, b []rune, cutoff float64) (float64, bool) {
	res, exact := s.ws.ComputeBounded(a, b, cutoff)
	return res.Distance, exact
}
func (s *contextualSession) DistanceStaged(a, b []rune, cutoff float64) (float64, bool, Stage) {
	res, exact, stage := s.ws.ComputeBoundedStaged(a, b, cutoff)
	return res.Distance, exact, stage
}

// DistanceBatch evaluates the query against every candidate on the
// session's workspace. An exact batch has no cutoff for the ladder's cheap
// rungs to reject against, so a per-pair loop is all batching can be here;
// the method keeps dC sessions on the Batcher path the bulk layers share.
func (s *contextualSession) DistanceBatch(a []rune, bs [][]rune, out []float64) []float64 {
	if len(out) != len(bs) {
		out = make([]float64, len(bs))
	}
	for i, b := range bs {
		out[i] = s.ws.Distance(a, b)
	}
	return out
}

// Contextual returns the exact contextual normalised distance dC: Algorithm
// 1 of the paper, pruned to the heuristic-derived edit-length band and
// running on pooled workspaces. It implements Staged (cutoff-aware early
// abandon through the bound ladder) and Sessioner (per-goroutine
// workspaces).
func Contextual() Metric {
	return contextualMetric{}
}

// contextualHeuristicMetric is dC,h with private workspace sessions.
type contextualHeuristicMetric struct{}

func (contextualHeuristicMetric) Name() string                 { return "dC,h" }
func (contextualHeuristicMetric) Distance(a, b []rune) float64 { return core.Heuristic(a, b) }
func (contextualHeuristicMetric) Session() Metric {
	return &contextualHeuristicSession{ws: core.NewWorkspace()}
}

// contextualHeuristicSession is a dC,h evaluator bound to a private
// workspace. Not safe for concurrent use.
type contextualHeuristicSession struct{ ws *core.Workspace }

func (s *contextualHeuristicSession) Name() string { return "dC,h" }
func (s *contextualHeuristicSession) Distance(a, b []rune) float64 {
	return s.ws.HeuristicCompute(a, b).Distance
}

// ContextualHeuristic returns the quadratic heuristic dC,h of §4.1, the
// variant the paper uses for all large experiments. It implements Sessioner
// (per-goroutine workspaces). It does not implement Staged: dC,h is
// the cost of the single k = dE path, and the whole quadratic program must
// run before that path is known — a cutoff saves nothing.
func ContextualHeuristic() Metric {
	return contextualHeuristicMetric{}
}

// YujianBo returns the Yujian–Bo normalised metric dYB.
func YujianBo() Metric {
	return New("dYB", norm.YujianBo)
}

// MarzalVidal returns the exact Marzal–Vidal normalised distance dMV.
func MarzalVidal() Metric {
	return New("dMV", norm.MarzalVidal)
}

// MaxNormalised returns dmax = dE/max(|x|,|y|) (not a metric).
func MaxNormalised() Metric {
	return New("dmax", norm.Max)
}

// MinNormalised returns dmin = dE/min(|x|,|y|) (not a metric).
func MinNormalised() Metric {
	return New("dmin", norm.Min)
}

// SumNormalised returns dsum = dE/(|x|+|y|) (not a metric).
func SumNormalised() Metric {
	return New("dsum", norm.Sum)
}

// builders maps every accepted name (canonical and aliases) to a metric
// constructor. Construction is cheap; no state is shared.
var builders = map[string]func() Metric{
	"de":   Levenshtein,
	"e":    Levenshtein,
	"dc":   Contextual,
	"c":    Contextual,
	"dc,h": ContextualHeuristic,
	"dch":  ContextualHeuristic,
	"ch":   ContextualHeuristic,
	"dyb":  YujianBo,
	"yb":   YujianBo,
	"dmv":  MarzalVidal,
	"mv":   MarzalVidal,
	"dmax": MaxNormalised,
	"max":  MaxNormalised,
	"dmin": MinNormalised,
	"min":  MinNormalised,
	"dsum": SumNormalised,
	"sum":  SumNormalised,
}

// ByName returns the metric registered under name (case-insensitive; both
// the paper notation "dC,h" and short aliases like "ch" are accepted).
func ByName(name string) (Metric, error) {
	b, ok := builders[normalise(name)]
	if !ok {
		return nil, fmt.Errorf("metric: unknown distance %q (known: %v)", name, Names())
	}
	return b(), nil
}

// Names returns the canonical distance names, sorted.
func Names() []string {
	out := []string{"dE", "dC", "dC,h", "dYB", "dMV", "dmax", "dmin", "dsum"}
	sort.Strings(out)
	return out
}

func normalise(name string) string {
	lower := make([]rune, 0, len(name))
	for _, r := range name {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		lower = append(lower, r)
	}
	return string(lower)
}

// Counter wraps a Metric and counts how many times Distance is invoked —
// the per-query statistic reported in the paper's Figures 3 and 4 — plus,
// for staged metrics, how many bounded evaluations each ladder rung
// resolved. It is not safe for concurrent use; use one Counter per
// goroutine and sum.
type Counter struct {
	M Metric
	N int64
	// Stages counts the DistanceStaged evaluations by resolving ladder
	// rung; plain Distance calls and non-staged fallbacks count under
	// StageExact (they paid for a full evaluation).
	Stages StageCounts
}

// Name returns the wrapped metric's name.
func (c *Counter) Name() string { return c.M.Name() }

// Distance increments the counter and delegates. The evaluation counts
// under StageExact in c.Stages — it ran to completion — so Stages always
// accounts for every counted evaluation.
func (c *Counter) Distance(a, b []rune) float64 {
	c.N++
	c.Stages[StageExact]++
	return c.M.Distance(a, b)
}

// DistanceBounded counts the evaluation like DistanceStaged.
func (c *Counter) DistanceBounded(a, b []rune, cutoff float64) (float64, bool) {
	d, exact, _ := c.DistanceStaged(a, b, cutoff)
	return d, exact
}

// DistanceStaged counts the evaluation, delegates to the wrapped metric's
// staged evaluation when it has one (an exact Distance otherwise — a
// bounded evaluation still counts as one distance computation: the paper's
// cost measure counts evaluations, not their internal work) and
// accumulates the resolving stage in c.Stages.
func (c *Counter) DistanceStaged(a, b []rune, cutoff float64) (float64, bool, Stage) {
	c.N++
	st, ok := c.M.(Staged)
	if !ok {
		c.Stages[StageExact]++
		return c.M.Distance(a, b), true, StageExact
	}
	d, exact, stage := st.DistanceStaged(a, b, cutoff)
	c.Stages[stage]++
	return d, exact, stage
}
