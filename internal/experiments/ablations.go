package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"ced/internal/core"
	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
)

// This file implements the design-choice ablations DESIGN.md calls out,
// beyond the paper's own artefacts: pivot-selection strategy, search
// structure, and exact-vs-heuristic trade-off.

// PivotAblationConfig parameterises the pivot-selection ablation: the same
// LAESA index built with max-sum (the original criterion), max-min and
// random pivots, compared on query cost.
type PivotAblationConfig struct {
	TrainSize  int
	QueryCount int
	Pivots     []int
	Seed       int64
}

func (c PivotAblationConfig) withDefaults() PivotAblationConfig {
	if c.TrainSize <= 0 {
		c.TrainSize = 800
	}
	if c.QueryCount <= 0 {
		c.QueryCount = 150
	}
	if len(c.Pivots) == 0 {
		c.Pivots = []int{5, 20, 50, 100}
	}
	if c.Seed == 0 {
		c.Seed = 9
	}
	return c
}

// PivotAblationResult holds average computations per query, per strategy
// and pivot count.
type PivotAblationResult struct {
	Config     PivotAblationConfig
	Strategies []string
	Pivots     []int
	AvgComps   [][]float64 // [strategy][pivotIdx]
}

// RunPivotAblation compares the three pivot-selection strategies on the
// Spanish dictionary with dC,h.
func RunPivotAblation(cfg PivotAblationConfig, progress Progress) PivotAblationResult {
	cfg = cfg.withDefaults()
	train := dataset.Spanish(cfg.TrainSize, cfg.Seed)
	queries := nonEmpty(dataset.PerturbQueries(train, cfg.QueryCount, 2, cfg.Seed+1).Runes())
	corpus := train.Runes()
	m := metric.ContextualHeuristic()
	strategies := []search.PivotStrategy{search.MaxSum, search.MaxMin, search.Random}
	res := PivotAblationResult{Config: cfg, Pivots: cfg.Pivots}
	for _, s := range strategies {
		res.Strategies = append(res.Strategies, s.String())
	}
	res.AvgComps = make([][]float64, len(strategies))
	for si, strat := range strategies {
		res.AvgComps[si] = make([]float64, len(cfg.Pivots))
		for pi, p := range cfg.Pivots {
			progress.printf("abl-pivot: strategy %s, %d pivots", strat, p)
			la := search.NewLAESA(corpus, m, p, strat, cfg.Seed+2)
			total := 0
			for _, q := range queries {
				total += la.Search(q).Computations
			}
			res.AvgComps[si][pi] = float64(total) / float64(len(queries))
		}
	}
	return res
}

// Render prints the strategy comparison.
func (r PivotAblationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Ablation: LAESA pivot selection (Spanish dictionary, %d train, %d queries, dC,h)\n",
		r.Config.TrainSize, r.Config.QueryCount)
	fmt.Fprintln(w, "average distance computations per query:")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprint(tw, "pivots")
	for _, s := range r.Strategies {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for pi, p := range r.Pivots {
		fmt.Fprintf(tw, "%d", p)
		for si := range r.Strategies {
			fmt.Fprintf(tw, "\t%.1f", r.AvgComps[si][pi])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// SearcherAblationConfig parameterises the search-structure ablation:
// linear scan, LAESA, AESA, VP-tree and BK-tree on the same corpus and
// queries.
type SearcherAblationConfig struct {
	TrainSize  int
	QueryCount int
	Pivots     int
	Seed       int64
}

func (c SearcherAblationConfig) withDefaults() SearcherAblationConfig {
	if c.TrainSize <= 0 {
		c.TrainSize = 800
	}
	if c.QueryCount <= 0 {
		c.QueryCount = 150
	}
	if c.Pivots <= 0 {
		c.Pivots = 40
	}
	if c.Seed == 0 {
		c.Seed = 10
	}
	return c
}

// SearcherAblationResult reports per structure: preprocessing distance
// computations, average query computations, and whether results matched
// the exhaustive scan.
type SearcherAblationResult struct {
	Config      SearcherAblationConfig
	Names       []string
	Preprocess  []int
	AvgComps    []float64
	ExactMatch  []bool
	QueryMicros []float64
}

// RunSearcherAblation compares the search structures under dE (so the
// BK-tree, integer-only, can participate).
func RunSearcherAblation(cfg SearcherAblationConfig, progress Progress) SearcherAblationResult {
	cfg = cfg.withDefaults()
	train := dataset.Spanish(cfg.TrainSize, cfg.Seed)
	queries := nonEmpty(dataset.PerturbQueries(train, cfg.QueryCount, 2, cfg.Seed+1).Runes())
	corpus := train.Runes()
	m := metric.Levenshtein()

	lin := search.NewLinear(corpus, m)
	la := search.NewLAESA(corpus, m, cfg.Pivots, search.MaxSum, cfg.Seed+2)
	ae := search.NewAESA(corpus, m)
	vp := search.NewVPTree(corpus, m, cfg.Seed+3)
	bk := search.NewBKTree(corpus, m)
	tr := search.NewTrie(corpus)
	type entry struct {
		s    search.Index
		prep int
	}
	entries := []entry{
		{lin, 0},
		{la, la.PreprocessComputations},
		{ae, ae.PreprocessComputations},
		{vp, vp.PreprocessComputations},
		{bk, cfg.TrainSize - 1}, // BK insertion: ~1 comparison per level; lower bound
		// The trie computes no distances at build time; its per-query
		// "computations" count visited trie nodes (DP rows), not metric
		// calls — comparable as work units, not one-to-one.
		{tr, 0},
	}
	res := SearcherAblationResult{Config: cfg}
	want := make([]float64, len(queries))
	for qi, q := range queries {
		want[qi] = lin.Search(q).Distance
	}
	for _, e := range entries {
		progress.printf("abl-search: %s", e.s.Name())
		total := 0
		match := true
		start := time.Now()
		for qi, q := range queries {
			r := e.s.Search(q)
			total += r.Computations
			if r.Distance != want[qi] {
				match = false
			}
		}
		elapsed := time.Since(start)
		res.Names = append(res.Names, e.s.Name())
		res.Preprocess = append(res.Preprocess, e.prep)
		res.AvgComps = append(res.AvgComps, float64(total)/float64(len(queries)))
		res.ExactMatch = append(res.ExactMatch, match)
		res.QueryMicros = append(res.QueryMicros, float64(elapsed.Microseconds())/float64(len(queries)))
	}
	return res
}

// Render prints the structure comparison.
func (r SearcherAblationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Ablation: search structures (Spanish dictionary, %d train, %d queries, dE)\n",
		r.Config.TrainSize, r.Config.QueryCount)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tpreprocess comps\tavg comps/query\tavg time/query (µs)\tmatches exhaustive")
	for i, n := range r.Names {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%v\n",
			n, r.Preprocess[i], r.AvgComps[i], r.QueryMicros[i], r.ExactMatch[i])
	}
	return tw.Flush()
}

// ExactVsHeuristicConfig parameterises the exact-vs-heuristic trade-off
// study: per string length, the runtime ratio and the agreement rate.
type ExactVsHeuristicConfig struct {
	Lengths        []int
	PairsPerLength int
	Seed           int64
}

func (c ExactVsHeuristicConfig) withDefaults() ExactVsHeuristicConfig {
	if len(c.Lengths) == 0 {
		c.Lengths = []int{8, 16, 32, 64, 128, 256}
	}
	if c.PairsPerLength <= 0 {
		c.PairsPerLength = 40
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// ExactVsHeuristicResult reports per length: mean exact, heuristic and
// windowed (window = WindowSize) call times, and the fraction of pairs on
// which each cheap variant matches the exact value.
type ExactVsHeuristicResult struct {
	Config          ExactVsHeuristicConfig
	WindowSize      int
	Lengths         []int
	ExactNanos      []float64
	HeurNanos       []float64
	WindowNanos     []float64
	Agreement       []float64 // heuristic == exact
	WindowAgreement []float64 // windowed == exact
}

// RunExactVsHeuristic measures the cubic-vs-quadratic gap that motivates
// the paper's §4.1 heuristic, on DNA-alphabet strings of growing length,
// and the windowed variant (ComputeWindowed) that sits between the two —
// this repository's answer to the §5 complexity question.
func RunExactVsHeuristic(cfg ExactVsHeuristicConfig, progress Progress) ExactVsHeuristicResult {
	cfg = cfg.withDefaults()
	const windowSize = 4
	res := ExactVsHeuristicResult{Config: cfg, Lengths: cfg.Lengths, WindowSize: windowSize}
	for _, l := range cfg.Lengths {
		progress.printf("abl-exact: length %d", l)
		gen := dataset.DNA(dataset.DNAConfig{
			Count: 2 * cfg.PairsPerLength, Families: cfg.PairsPerLength,
			MinLen: l, MaxLen: l,
		}, cfg.Seed+int64(l))
		rs := gen.Runes()
		agree, wagree := 0, 0
		var exact, heur, wind time.Duration
		for p := 0; p < cfg.PairsPerLength; p++ {
			x, y := rs[2*p], rs[2*p+1]
			t0 := time.Now()
			de := core.Distance(x, y)
			exact += time.Since(t0)
			t1 := time.Now()
			dh := core.Heuristic(x, y)
			heur += time.Since(t1)
			t2 := time.Now()
			dw := core.Windowed(x, y, windowSize)
			wind += time.Since(t2)
			if dh-de <= 1e-12 {
				agree++
			}
			if dw-de <= 1e-12 {
				wagree++
			}
		}
		per := float64(cfg.PairsPerLength)
		res.ExactNanos = append(res.ExactNanos, float64(exact.Nanoseconds())/per)
		res.HeurNanos = append(res.HeurNanos, float64(heur.Nanoseconds())/per)
		res.WindowNanos = append(res.WindowNanos, float64(wind.Nanoseconds())/per)
		res.Agreement = append(res.Agreement, float64(agree)/per)
		res.WindowAgreement = append(res.WindowAgreement, float64(wagree)/per)
	}
	return res
}

// Render prints the trade-off table.
func (r ExactVsHeuristicResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Ablation: exact dC (cubic) vs heuristic dC,h (quadratic) vs windowed dC+%d, DNA strings\n", r.WindowSize)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "length\texact µs\theur µs\twindow µs\theur speedup\theur agree\twindow agree")
	for i, l := range r.Lengths {
		speedup := 0.0
		if r.HeurNanos[i] > 0 {
			speedup = r.ExactNanos[i] / r.HeurNanos[i]
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\t%.1fx\t%.0f%%\t%.0f%%\n",
			l, r.ExactNanos[i]/1000, r.HeurNanos[i]/1000, r.WindowNanos[i]/1000,
			speedup, 100*r.Agreement[i], 100*r.WindowAgreement[i])
	}
	return tw.Flush()
}
