package ced_test

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benches for this repository's own design choices: pivot
// selection, search structure, the Levenshtein engines and the windowed
// contextual kernel. Benchmark sizes are trimmed versions of the cedexp
// defaults so that `go test -bench=. -benchmem` finishes in minutes;
// cmd/cedexp runs the full-scale versions (README, "`cedexp` — reproduce
// the paper"). No file records the numbers; BENCH.md, "Microbenchmarks",
// says how to compare them.

import (
	"testing"

	"ced"
	"ced/internal/dataset"
	"ced/internal/editdist"
	"ced/internal/experiments"
	"ced/internal/metric"
	"ced/internal/search"
)

// --- Figures 1 and 2: distance histograms ---

func BenchmarkFigure1HeuristicHistograms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig1(experiments.Fig1Config{Words: 150, Seed: 1}, nil)
	}
}

func BenchmarkFigure2GeneHistograms(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig2(experiments.Fig2Config{Genes: 24, Seed: 2}, nil)
	}
}

// --- Table 1: intrinsic dimensionality ---

func BenchmarkTable1IntrinsicDimensionality(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunTable1(experiments.Table1Config{
			SpanishWords: 120, DigitCount: 40, GeneCount: 20, Seed: 3,
		}, nil)
	}
}

// --- Figures 3 and 4: LAESA pivot sweeps ---

func BenchmarkFigure3LAESASpanish(b *testing.B) {
	cfg := experiments.Fig3Config{Sweep: experiments.SweepConfig{
		TrainSize:   200,
		QueryCount:  30,
		Pivots:      []int{2, 25, 50, 100},
		Repetitions: 1,
		Seed:        4,
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig3(cfg, nil)
	}
}

func BenchmarkFigure4LAESADigits(b *testing.B) {
	cfg := experiments.Fig4Config{Sweep: experiments.SweepConfig{
		TrainSize:   100,
		QueryCount:  15,
		Pivots:      []int{2, 25, 50},
		Repetitions: 1,
		Seed:        5,
		Metrics: []metric.Metric{ // dMV excluded: cubic per call dominates at bench scale
			metric.YujianBo(),
			metric.ContextualHeuristic(),
			metric.MaxNormalised(),
			metric.Levenshtein(),
		},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig4(cfg, nil)
	}
}

// --- Table 2: digit classification ---

func BenchmarkTable2DigitClassification(b *testing.B) {
	cfg := experiments.Table2Config{
		TrainPerClass: 5,
		TestCount:     40,
		Pivots:        15,
		Repetitions:   1,
		Seed:          6,
		Metrics: []metric.Metric{
			metric.YujianBo(),
			metric.ContextualHeuristic(),
			metric.MaxNormalised(),
			metric.Levenshtein(),
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4.1: heuristic agreement ---

func BenchmarkHeuristicGap(b *testing.B) {
	cfg := experiments.GapConfig{
		SpanishWords: 80, DigitCount: 24, GeneCount: 12, MaxPairs: 500, Seed: 7,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunGap(cfg, nil)
	}
}

// --- Ablations: distance kernels across string lengths ---

func distPairs(b *testing.B, kind string, n int) ([]rune, []rune) {
	b.Helper()
	switch kind {
	case "words":
		d := dataset.Spanish(2, 42)
		return d.Runes()[0], d.Runes()[1]
	case "contours":
		d := dataset.Digits(dataset.DigitsConfig{Count: 2, Grid: n}, 42)
		return d.Runes()[0], d.Runes()[1]
	default: // dna
		d := dataset.DNA(dataset.DNAConfig{Count: 2, Families: 2, MinLen: n, MaxLen: n}, 42)
		return d.Runes()[0], d.Runes()[1]
	}
}

func BenchmarkContextualExactWords(b *testing.B) { benchMetric(b, metric.Contextual(), "words", 0) }
func BenchmarkContextualExactContours(b *testing.B) {
	benchMetric(b, metric.Contextual(), "contours", 32)
}
func BenchmarkContextualExactDNA200(b *testing.B) { benchMetric(b, metric.Contextual(), "dna", 200) }
func BenchmarkContextualHeuristicWords(b *testing.B) {
	benchMetric(b, metric.ContextualHeuristic(), "words", 0)
}
func BenchmarkContextualHeuristicContours(b *testing.B) {
	benchMetric(b, metric.ContextualHeuristic(), "contours", 32)
}
func BenchmarkContextualHeuristicDNA200(b *testing.B) {
	benchMetric(b, metric.ContextualHeuristic(), "dna", 200)
}
func BenchmarkLevenshteinWords(b *testing.B)    { benchMetric(b, metric.Levenshtein(), "words", 0) }
func BenchmarkLevenshteinContours(b *testing.B) { benchMetric(b, metric.Levenshtein(), "contours", 32) }
func BenchmarkLevenshteinDNA200(b *testing.B)   { benchMetric(b, metric.Levenshtein(), "dna", 200) }
func BenchmarkMarzalVidalWords(b *testing.B)    { benchMetric(b, metric.MarzalVidal(), "words", 0) }
func BenchmarkMarzalVidalContours(b *testing.B) { benchMetric(b, metric.MarzalVidal(), "contours", 32) }
func BenchmarkYujianBoWords(b *testing.B)       { benchMetric(b, metric.YujianBo(), "words", 0) }
func BenchmarkYujianBoContours(b *testing.B)    { benchMetric(b, metric.YujianBo(), "contours", 32) }

func benchMetric(b *testing.B, m metric.Metric, kind string, n int) {
	x, y := distPairs(b, kind, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

// --- Ablation: cutoff-bounded exact kernel ---

// BenchmarkContextualBoundedDNA200 measures core.DistanceBounded under a
// cutoff of half the true distance — the regime a metric-space searcher
// with a good best-so-far puts the kernel in. The k-band proves the
// distance exceeds the cutoff after only the quadratic heuristic, so the
// cubic sweep is abandoned; compare with BenchmarkContextualExactDNA200.
func BenchmarkContextualBoundedDNA200(b *testing.B) {
	x, y := distPairs(b, "dna", 200)
	m := metric.Contextual().(metric.Staged)
	cutoff := m.Distance(x, y) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DistanceBounded(x, y, cutoff)
	}
}

// BenchmarkLAESAExactContextual runs LAESA queries under the *exact* dC —
// viable only because eliminated candidates now cost a bounded evaluation
// instead of a full cubic one (NewLAESA passes the pruning radius as the
// cutoff). The comps/query metric is unchanged by bounding; ns/op is what
// the cutoff buys.
func BenchmarkLAESAExactContextual(b *testing.B) {
	corpus := dataset.Spanish(300, 18).Runes()
	queries := dataset.PerturbQueries(dataset.Spanish(300, 18), 40, 2, 19).Runes()
	la := search.NewLAESA(corpus, metric.Contextual(), 30, search.MaxSum, 20)
	benchSearch(b, la, queries)
}

// benchSearch times Search over the queries in turn. comps/query is the
// mean over one untimed pass of the list, so it does not move with b.N.
func benchSearch(b *testing.B, s search.Index, queries [][]rune) {
	comps := 0
	for _, q := range queries {
		comps += s.Search(q).Computations
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Search(queries[i%len(queries)])
	}
	b.ReportMetric(float64(comps)/float64(len(queries)), "comps/query")
}

// --- Ablations: pivot selection strategy and searcher structure ---

func BenchmarkAblationPivotSelection(b *testing.B) {
	corpus := dataset.Spanish(400, 9).Runes()
	queries := dataset.PerturbQueries(dataset.Spanish(400, 9), 40, 2, 10).Runes()
	m := metric.ContextualHeuristic()
	for _, strat := range []search.PivotStrategy{search.MaxSum, search.MaxMin, search.Random} {
		b.Run(strat.String(), func(b *testing.B) {
			benchSearch(b, search.NewLAESA(corpus, m, 30, strat, 11), queries)
		})
	}
}

func BenchmarkAblationSearchers(b *testing.B) {
	corpus := dataset.Spanish(400, 12).Runes()
	queries := dataset.PerturbQueries(dataset.Spanish(400, 12), 40, 2, 13).Runes()
	m := metric.ContextualHeuristic()
	searchers := []search.Index{
		search.NewLinear(corpus, m),
		search.NewLAESA(corpus, m, 30, search.MaxSum, 14),
		search.NewAESA(corpus, m),
		search.NewVPTree(corpus, m, 15),
	}
	for _, s := range searchers {
		b.Run(s.Name(), func(b *testing.B) {
			benchSearch(b, s, queries)
		})
	}
}

// --- Ablation: Levenshtein engines ---

func BenchmarkLevenshteinEngines(b *testing.B) {
	x, y := distPairs(b, "contours", 32)
	b.Run("two-row", func(b *testing.B) {
		for b.Loop() {
			editdist.Distance(x, y)
		}
	})
	b.Run("myers-bounded", func(b *testing.B) {
		var s editdist.Scratch
		k := max(len(x), len(y)) // a bound no distance exceeds: the exact dE
		for b.Loop() {
			s.MyersBounded(x, y, k)
		}
	})
}

// --- End-to-end facade benches ---

func BenchmarkFacadeLAESAQuery(b *testing.B) {
	dict := ced.GenerateSpanish(2000, 16)
	ix := ced.NewLAESA(dict.Strings, ced.ContextualHeuristic(), 50)
	queries := ced.PerturbQueries(dict, 64, 2, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Nearest(queries.Strings[i%len(queries.Strings)])
	}
}

func BenchmarkFacadeContextual(b *testing.B) {
	m := ced.Contextual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Distance("contextual", "normalised")
	}
}

// --- Ablation: windowed contextual variants (the §5 complexity answer) ---

func BenchmarkContextualWindowed(b *testing.B) {
	x, y := distPairs(b, "dna", 200)
	for _, w := range []int{0, 4, 16, 64} {
		m := metric.ContextualWindowed(w)
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Distance(x, y)
			}
		})
	}
}

// --- Bulk evaluation layer: DistanceMatrix steady state (ISSUE 3) ---

// 96 Spanish-like words = 4,560 exact-dC evaluations per op. The acceptance
// measure is allocs/op divided by the evaluation count: the session-threaded
// fan keeps it at zero per evaluation (the ~n fixed allocations are the
// result matrix and rune decodings).
func BenchmarkDistanceMatrixContextual(b *testing.B) {
	data := dataset.Spanish(96, 9).Strings
	m := ced.Contextual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ced.DistanceMatrix(data, m, 0)
	}
}

// --- Batched evaluation kernels (ISSUE 10) ---

// 4,096 dE pairs per op, one query string recurring per block of 64 — the
// shape of a spell-check /distance/batch call. The win over the seed is the
// dE session: each worker answers through the bit-parallel Myers kernel
// with pooled scratch instead of allocating a fresh O(|a|·|b|) DP table per
// pair.
func BenchmarkBatchDistanceDE(b *testing.B) {
	data := dataset.Spanish(128, 17).Strings
	pairs := make([]ced.Pair, 4096)
	for i := range pairs {
		pairs[i] = ced.Pair{A: data[(i/64)%len(data)], B: data[(i*7+3)%len(data)]}
	}
	m := ced.Levenshtein()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ced.BatchDistance(pairs, m, 0)
	}
}
