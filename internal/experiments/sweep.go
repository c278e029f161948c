package experiments

import (
	"fmt"
	"io"

	"ced/internal/bulk"
	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
)

// SweepConfig parameterises the LAESA pivot-count sweeps of Figures 3
// (Spanish dictionary) and 4 (handwritten digits): average distance
// computations and search time per query as a function of the number of
// base prototypes.
//
// The paper used 1,000 training samples, 1,000 queries and 10 repetitions;
// the defaults trim the queries and repetitions to keep the cubic dMV
// tractable.
type SweepConfig struct {
	TrainSize   int
	QueryCount  int
	Pivots      []int
	Metrics     []metric.Metric
	Repetitions int
	Seed        int64
	Workers     int
	// LatencySample is the number of real distance calls timed per metric
	// to convert computation counts into estimated seconds.
	LatencySample int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.TrainSize <= 0 {
		c.TrainSize = 1000
	}
	if c.QueryCount <= 0 {
		c.QueryCount = 200
	}
	if len(c.Pivots) == 0 {
		c.Pivots = []int{2, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300}
	}
	if len(c.Metrics) == 0 {
		c.Metrics = []metric.Metric{
			metric.YujianBo(),
			metric.ContextualHeuristic(),
			metric.MarzalVidal(),
			metric.MaxNormalised(),
			metric.Levenshtein(),
		}
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	if c.Seed == 0 {
		c.Seed = 4
	}
	if c.LatencySample <= 0 {
		c.LatencySample = 64
	}
	return c
}

// SweepResult holds the two series of Figure 3/4 for every metric:
// average distance computations and estimated search time per query, per
// pivot count, averaged over repetitions (std over repetitions included).
type SweepResult struct {
	Name     string
	Config   SweepConfig
	Pivots   []int
	Metrics  []string
	AvgComps [][]float64 // [metric][pivotIdx]
	StdComps [][]float64
	EstTime  [][]float64 // seconds/query = AvgComps × Latency
	Latency  []float64   // seconds per distance call, measured
}

// corpusProvider returns the training corpus and queries for one
// repetition. Strings must be non-empty (required by the matrix-backed
// LAESA); dataset generators guarantee this.
type corpusProvider func(rep int) (corpus, queries [][]rune)

// runSweep executes the pivot sweep. For each (repetition, metric) it
// computes the full corpus distance matrix once (in parallel), then builds
// matrix-backed LAESA indexes for every pivot count — pivot sets are nested
// across counts because the greedy max-sum selection is deterministic per
// seed — and answers all queries, memoising query-to-corpus distances so a
// query pays for each corpus element at most once per (metric, pivot
// count). Computation counts are the algorithmic counts reported by LAESA,
// unaffected by the memoisation.
func runSweep(name string, provider corpusProvider, cfg SweepConfig, progress Progress) SweepResult {
	cfg = cfg.withDefaults()
	res := SweepResult{Name: name, Config: cfg, Pivots: cfg.Pivots}
	for _, m := range cfg.Metrics {
		res.Metrics = append(res.Metrics, m.Name())
	}
	nm, np := len(cfg.Metrics), len(cfg.Pivots)
	perRep := make([][][]float64, nm) // [metric][pivot][rep]
	for i := range perRep {
		perRep[i] = make([][]float64, np)
		for j := range perRep[i] {
			perRep[i][j] = make([]float64, cfg.Repetitions)
		}
	}
	res.Latency = make([]float64, nm)

	for rep := 0; rep < cfg.Repetitions; rep++ {
		corpus, queries := provider(rep)
		for mi, m := range cfg.Metrics {
			progress.printf("%s: rep %d/%d, metric %s: corpus matrix (%d pairs)",
				name, rep+1, cfg.Repetitions, m.Name(), len(corpus)*(len(corpus)-1)/2)
			matrix := bulk.New(m).Matrix(corpus, cfg.Workers)
			if rep == 0 {
				res.Latency[mi] = measureLatency(m, samplePairs(queries, corpus, cfg.LatencySample)).Seconds()
			}
			progress.printf("%s: rep %d/%d, metric %s: sweeping %d pivot counts",
				name, rep+1, cfg.Repetitions, m.Name(), np)
			// Pivot counts are striped over the workers. Each queries through
			// its worker's private session wrapped in a per-query memo of its
			// own: cache misses evaluate on the session's workspace, so
			// concurrent pivot counts never contend on a shared pool.
			bulk.New(m).Fan(np, cfg.Workers, func(s metric.Metric, pi int) {
				qm := &queryMemo{inner: s}
				la := search.NewLAESAFromMatrix(corpus, qm, matrix, cfg.Pivots[pi], search.MaxSum, cfg.Seed+int64(rep))
				total := 0
				for _, q := range queries {
					total += la.Search(q).Computations
				}
				perRep[mi][pi][rep] = float64(total) / float64(len(queries))
			})
		}
	}

	res.AvgComps = make([][]float64, nm)
	res.StdComps = make([][]float64, nm)
	res.EstTime = make([][]float64, nm)
	for mi := 0; mi < nm; mi++ {
		res.AvgComps[mi] = make([]float64, np)
		res.StdComps[mi] = make([]float64, np)
		res.EstTime[mi] = make([]float64, np)
		for pi := 0; pi < np; pi++ {
			mean, std := meanStd(perRep[mi][pi])
			res.AvgComps[mi][pi] = mean
			res.StdComps[mi][pi] = std
			res.EstTime[mi][pi] = mean * res.Latency[mi]
		}
	}
	return res
}

// queryMemo caches query-to-corpus distances for the current query only
// (identified by the query slice's backing array). Safe because distances
// depend only on string contents, and content-identical cache hits return
// content-identical results. Not safe for concurrent use; each sweep
// goroutine owns one.
type queryMemo struct {
	inner metric.Metric
	cache map[*rune]float64
	lastQ *rune
}

func (qm *queryMemo) Name() string { return qm.inner.Name() }

func (qm *queryMemo) Distance(q, c []rune) float64 {
	var qk *rune
	if len(q) > 0 {
		qk = &q[0]
	}
	if qm.cache == nil || qk != qm.lastQ {
		qm.cache = make(map[*rune]float64, 512)
		qm.lastQ = qk
	}
	var ck *rune
	if len(c) > 0 {
		ck = &c[0]
	}
	if v, ok := qm.cache[ck]; ok {
		return v
	}
	v := qm.inner.Distance(q, c)
	qm.cache[ck] = v
	return v
}

// Fig3Config parameterises Figure 3 (Spanish dictionary sweep). Queries are
// genqueries-style perturbations with two edit operations, as in the paper.
type Fig3Config struct {
	Sweep      SweepConfig
	PerturbOps int
}

// RunFig3 regenerates Figure 3.
func RunFig3(cfg Fig3Config, progress Progress) SweepResult {
	if cfg.PerturbOps <= 0 {
		cfg.PerturbOps = 2
	}
	sc := cfg.Sweep.withDefaults()
	provider := func(rep int) ([][]rune, [][]rune) {
		seed := sc.Seed + int64(rep)*1000
		train := dataset.Spanish(sc.TrainSize, seed)
		queries := dataset.PerturbQueries(train, sc.QueryCount, cfg.PerturbOps, seed+1)
		return train.Runes(), nonEmpty(queries.Runes())
	}
	return runSweep("fig3(spanish)", provider, sc, progress)
}

// Fig4Config parameterises Figure 4 (handwritten digits sweep). Queries are
// digits from writers disjoint from the training writers.
type Fig4Config struct {
	Sweep   SweepConfig
	Digits  dataset.DigitsConfig // Count/FirstWriter overridden per role
	Writers int
}

// RunFig4 regenerates Figure 4.
func RunFig4(cfg Fig4Config, progress Progress) SweepResult {
	sc := cfg.Sweep.withDefaults()
	if cfg.Writers <= 0 {
		cfg.Writers = 10
	}
	if cfg.Digits.Grid == 0 {
		cfg.Digits.Grid = 32 // smaller contours keep dMV's cubic cost sane
	}
	provider := func(rep int) ([][]rune, [][]rune) {
		seed := sc.Seed + int64(rep)*1000
		trainCfg := cfg.Digits
		trainCfg.Count = sc.TrainSize
		trainCfg.Writers = cfg.Writers
		trainCfg.FirstWriter = rep * 2 * cfg.Writers
		testCfg := cfg.Digits
		testCfg.Count = sc.QueryCount
		testCfg.Writers = cfg.Writers
		testCfg.FirstWriter = rep*2*cfg.Writers + cfg.Writers
		return dataset.Digits(trainCfg, seed).Runes(), dataset.Digits(testCfg, seed+1).Runes()
	}
	return runSweep("fig4(digits)", provider, sc, progress)
}

// nonEmpty filters out empty strings (a perturbation can delete a short
// word down to nothing; LAESA handles it, but dmin would return +Inf and
// pollute averages).
func nonEmpty(rs [][]rune) [][]rune {
	out := rs[:0]
	for _, r := range rs {
		if len(r) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// Render prints the two panels of the figure: distance computations per
// query and estimated time per query, one column per metric.
func (r SweepResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s: LAESA with %d training samples, %d queries, %d repetitions\n",
		r.Name, r.Config.TrainSize, r.Config.QueryCount, r.Config.Repetitions)
	fmt.Fprintln(w, "\nAverage distance computations per query (std over repetitions):")
	fmt.Fprintf(w, "%8s", "pivots")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, " %16s", m)
	}
	fmt.Fprintln(w)
	for pi, p := range r.Pivots {
		fmt.Fprintf(w, "%8d", p)
		for mi := range r.Metrics {
			fmt.Fprintf(w, " %10.1f±%-5.1f", r.AvgComps[mi][pi], r.StdComps[mi][pi])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nEstimated search time per query (s) = computations × per-call latency:")
	fmt.Fprintf(w, "%8s", "pivots")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, " %16s", m)
	}
	fmt.Fprintln(w)
	for pi, p := range r.Pivots {
		fmt.Fprintf(w, "%8d", p)
		for mi := range r.Metrics {
			fmt.Fprintf(w, " %16.6f", r.EstTime[mi][pi])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nMeasured per-call latency (s):")
	for mi, m := range r.Metrics {
		fmt.Fprintf(w, "  %-6s %.9f\n", m, r.Latency[mi])
	}
	return nil
}
