package experiments

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"

	"ced/internal/classify"
	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
)

// Table2Config parameterises Table 2: 1-NN classification error on the
// handwritten digits, comparing LAESA against exhaustive search for six
// distances. The paper used 100 training digits per class and 1,000 test
// digits from different writers, averaged over 10 prototype sets; defaults
// are scaled (the exact dC and dMV are cubic per distance call).
type Table2Config struct {
	TrainPerClass int
	TestCount     int
	Pivots        int
	Repetitions   int
	Writers       int
	Digits        dataset.DigitsConfig // Grid etc.; counts overridden
	Metrics       []metric.Metric
	Seed          int64
	Workers       int
}

func (c Table2Config) withDefaults() Table2Config {
	if c.TrainPerClass <= 0 {
		c.TrainPerClass = 20
	}
	if c.TestCount <= 0 {
		c.TestCount = 100
	}
	if c.Pivots <= 0 {
		c.Pivots = 40
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	if c.Writers <= 0 {
		c.Writers = 10
	}
	if c.Digits.Grid == 0 {
		c.Digits.Grid = 32
	}
	if len(c.Metrics) == 0 {
		c.Metrics = []metric.Metric{
			metric.YujianBo(),
			metric.MarzalVidal(),
			metric.Contextual(),
			metric.ContextualHeuristic(),
			metric.MaxNormalised(),
			metric.Levenshtein(),
		}
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
	return c
}

// Table2Result reports, per distance, the error rate (%) and the average
// distance computations per query under LAESA and under exhaustive search.
type Table2Result struct {
	Config     Table2Config
	Metrics    []string
	LAESAErr   []float64
	ExhErr     []float64
	LAESAComps []float64
	ExhComps   []float64
}

// RunTable2 regenerates Table 2.
func RunTable2(cfg Table2Config, progress Progress) (Table2Result, error) {
	cfg = cfg.withDefaults()
	res := Table2Result{Config: cfg}
	for _, m := range cfg.Metrics {
		res.Metrics = append(res.Metrics, m.Name())
	}
	nm := len(cfg.Metrics)
	res.LAESAErr = make([]float64, nm)
	res.ExhErr = make([]float64, nm)
	res.LAESAComps = make([]float64, nm)
	res.ExhComps = make([]float64, nm)
	laesaOut := make([]classify.Outcome, nm)
	exhOut := make([]classify.Outcome, nm)

	for rep := 0; rep < cfg.Repetitions; rep++ {
		seed := cfg.Seed + int64(rep)*1000
		trainCfg := cfg.Digits
		trainCfg.Count = cfg.TrainPerClass * 10
		trainCfg.Writers = cfg.Writers
		trainCfg.FirstWriter = rep * 2 * cfg.Writers
		testCfg := cfg.Digits
		testCfg.Count = cfg.TestCount
		testCfg.Writers = cfg.Writers
		testCfg.FirstWriter = rep*2*cfg.Writers + cfg.Writers
		train := dataset.Digits(trainCfg, seed)
		test := dataset.Digits(testCfg, seed+1)

		for mi, m := range cfg.Metrics {
			progress.printf("table2: rep %d/%d, metric %s", rep+1, cfg.Repetitions, m.Name())
			laesa := search.NewLAESA(train.Runes(), m, cfg.Pivots, search.MaxSum, seed)
			lin := search.NewLinear(train.Runes(), m)
			lo, err := parallelEvaluate(laesa, train.Labels, test.Runes(), test.Labels, cfg.Workers)
			if err != nil {
				return res, err
			}
			eo, err := parallelEvaluate(lin, train.Labels, test.Runes(), test.Labels, cfg.Workers)
			if err != nil {
				return res, err
			}
			laesaOut[mi].Merge(lo)
			exhOut[mi].Merge(eo)
		}
	}
	for mi := range cfg.Metrics {
		res.LAESAErr[mi] = laesaOut[mi].ErrorRate()
		res.ExhErr[mi] = exhOut[mi].ErrorRate()
		res.LAESAComps[mi] = laesaOut[mi].AvgComputations()
		res.ExhComps[mi] = exhOut[mi].AvgComputations()
	}
	return res, nil
}

// parallelEvaluate shards queries over workers (Search is read-only and
// safe for concurrent use) and merges the outcomes deterministically in
// shard order.
func parallelEvaluate(s search.Index, trainLabels []int, queries [][]rune, queryLabels []int, workers int) (classify.Outcome, error) {
	w := defaultWorkers(workers)
	if w > len(queries) {
		w = len(queries)
	}
	if w <= 1 {
		return classify.Evaluate(s, trainLabels, queries, queryLabels)
	}
	outs := make([]classify.Outcome, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	chunk := (len(queries) + w - 1) / w
	for k := 0; k < w; k++ {
		lo, hi := k*chunk, (k+1)*chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			outs[k], errs[k] = classify.Evaluate(s, trainLabels, queries[lo:hi], queryLabels[lo:hi])
		}(k, lo, hi)
	}
	wg.Wait()
	var total classify.Outcome
	for k := 0; k < w; k++ {
		if errs[k] != nil {
			return total, errs[k]
		}
		total.Merge(outs[k])
	}
	return total, nil
}

// Render prints Table 2 plus the computation counts behind it.
func (r Table2Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Table 2: 1-NN error rate (%%) on handwritten digits (%d train/class, %d test, %d reps, %d pivots)\n\n",
		r.Config.TrainPerClass, r.Config.TestCount, r.Config.Repetitions, r.Config.Pivots)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Distances\tLAESA\tExhaustive search\tLAESA comps/query\tExhaustive comps/query")
	for i, m := range r.Metrics {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.1f\t%.1f\n",
			m, r.LAESAErr[i], r.ExhErr[i], r.LAESAComps[i], r.ExhComps[i])
	}
	return tw.Flush()
}
