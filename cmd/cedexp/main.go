// Command cedexp regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	cedexp -exp fig1|fig2|table1|fig3|fig4|table2|gap|counter|all [flags]
//
// Sizes default to laptop-friendly scales; use -quick for a fast smoke run
// or the size flags to approach paper scale. All runs are deterministic for
// a given -seed. Figures are printed as aligned numeric series (gnuplot
// consumable); tables match the paper's layout.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ced/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig1 | fig2 | table1 | fig3 | fig4 | table2 | fig5 | gap | counter | all | abl-pivot | abl-search | abl-exact | ablations")
		seed    = flag.Int64("seed", 0, "random seed (0 = per-experiment defaults)")
		quick   = flag.Bool("quick", false, "tiny sizes for a fast smoke run")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
		workers = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")

		words   = flag.Int("words", 0, "fig1/table1/gap: Spanish words")
		genes   = flag.Int("genes", 0, "fig2/table1/gap: gene count")
		digits  = flag.Int("digits", 0, "table1/gap: digit count")
		train   = flag.Int("train", 0, "fig3/fig4: training-set size")
		queries = flag.Int("queries", 0, "fig3/fig4: query count")
		reps    = flag.Int("reps", 0, "fig3/fig4/table2: repetitions")
	)
	flag.Parse()

	var progress experiments.Progress
	if !*quiet {
		progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	cfg := sizes{
		seed: *seed, quick: *quick, workers: *workers,
		words: *words, genes: *genes, digits: *digits,
		train: *train, queries: *queries, reps: *reps,
	}

	for i, name := range expand(*exp) {
		if i > 0 {
			fmt.Println(separator)
		}
		res, err := runExperiment(name, cfg, progress)
		if err == nil {
			err = res.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cedexp:", err)
			os.Exit(1)
		}
	}
}

// separator is printed between the experiments of a group.
var separator = "\n" + strings.Repeat("=", 78) + "\n"

// expand resolves the "all" and "ablations" groups to their experiments.
func expand(exp string) []string {
	switch exp {
	case "all":
		return []string{"counter", "fig1", "fig2", "table1", "gap", "fig3", "fig4", "table2", "fig5"}
	case "ablations":
		return []string{"abl-pivot", "abl-search", "abl-exact"}
	}
	return []string{exp}
}

// renderer is an experiment's result, ready to print.
type renderer interface {
	Render(w io.Writer) error
}

// counterexamples renders the metric-axiom counterexamples.
type counterexamples []experiments.CounterexampleResult

func (c counterexamples) Render(w io.Writer) error {
	experiments.RenderCounterexamples(w, c)
	return nil
}

// runExperiment runs the named experiment at the sizes cfg resolves.
func runExperiment(name string, cfg sizes, progress experiments.Progress) (renderer, error) {
	switch name {
	case "fig1":
		return experiments.RunFig1(cfg.fig1(), progress), nil
	case "fig2":
		return experiments.RunFig2(cfg.fig2(), progress), nil
	case "table1":
		return experiments.RunTable1(cfg.table1(), progress), nil
	case "fig3":
		return experiments.RunFig3(cfg.fig3(), progress), nil
	case "fig4":
		return experiments.RunFig4(cfg.fig4(), progress), nil
	case "table2":
		return experiments.RunTable2(cfg.table2(), progress)
	case "gap":
		return experiments.RunGap(cfg.gap(), progress), nil
	case "fig5":
		return experiments.RunFig5(experiments.Fig5Config{Seed: cfg.seed}, progress), nil
	case "counter":
		return counterexamples(experiments.RunCounterexamples()), nil
	case "abl-pivot":
		return experiments.RunPivotAblation(cfg.pivotAblation(), progress), nil
	case "abl-search":
		return experiments.RunSearcherAblation(cfg.searcherAblation(), progress), nil
	case "abl-exact":
		return experiments.RunExactVsHeuristic(cfg.exactAblation(), progress), nil
	case "corr":
		return experiments.RunCorrelation(experiments.CorrelationConfig{
			Size: cfg.digits, Seed: cfg.seed, Workers: cfg.workers,
		}, progress)
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// sizes resolves command-line size overrides, quick mode, and defaults.
type sizes struct {
	seed                 int64
	quick                bool
	workers              int
	words, genes, digits int
	train, queries, reps int
}

func (s sizes) pick(flagVal, quickVal, defVal int) int {
	if flagVal > 0 {
		return flagVal
	}
	if s.quick {
		return quickVal
	}
	return defVal
}

func (s sizes) fig1() experiments.Fig1Config {
	return experiments.Fig1Config{
		Words: s.pick(s.words, 120, 0), Seed: s.seed, Workers: s.workers,
	}
}

func (s sizes) fig2() experiments.Fig2Config {
	return experiments.Fig2Config{
		Genes: s.pick(s.genes, 20, 0), Seed: s.seed, Workers: s.workers,
	}
}

func (s sizes) table1() experiments.Table1Config {
	return experiments.Table1Config{
		SpanishWords: s.pick(s.words, 100, 0),
		DigitCount:   s.pick(s.digits, 30, 0),
		GeneCount:    s.pick(s.genes, 16, 0),
		Seed:         s.seed,
		Workers:      s.workers,
	}
}

func (s sizes) sweep() experiments.SweepConfig {
	sc := experiments.SweepConfig{
		TrainSize:   s.pick(s.train, 100, 0),
		QueryCount:  s.pick(s.queries, 20, 0),
		Repetitions: s.pick(s.reps, 1, 0),
		Seed:        s.seed,
		Workers:     s.workers,
	}
	if s.quick {
		sc.Pivots = []int{2, 10, 25, 50}
	}
	return sc
}

func (s sizes) fig3() experiments.Fig3Config {
	return experiments.Fig3Config{Sweep: s.sweep()}
}

func (s sizes) fig4() experiments.Fig4Config {
	sc := s.sweep()
	if s.train == 0 && !s.quick {
		sc.TrainSize = 400 // digits are ~10× costlier per distance than words
	}
	if s.queries == 0 && !s.quick {
		sc.QueryCount = 100
	}
	return experiments.Fig4Config{Sweep: sc}
}

func (s sizes) table2() experiments.Table2Config {
	return experiments.Table2Config{
		TrainPerClass: s.pick(s.train, 5, 0),
		TestCount:     s.pick(s.queries, 40, 0),
		Repetitions:   s.pick(s.reps, 1, 0),
		Seed:          s.seed,
		Workers:       s.workers,
	}
}

func (s sizes) gap() experiments.GapConfig {
	return experiments.GapConfig{
		SpanishWords: s.pick(s.words, 80, 0),
		DigitCount:   s.pick(s.digits, 20, 0),
		GeneCount:    s.pick(s.genes, 12, 0),
		MaxPairs:     s.pick(0, 500, 0),
		Seed:         s.seed,
		Workers:      s.workers,
	}
}

func (s sizes) pivotAblation() experiments.PivotAblationConfig {
	return experiments.PivotAblationConfig{
		TrainSize:  s.pick(s.train, 150, 0),
		QueryCount: s.pick(s.queries, 30, 0),
		Seed:       s.seed,
	}
}

func (s sizes) searcherAblation() experiments.SearcherAblationConfig {
	return experiments.SearcherAblationConfig{
		TrainSize:  s.pick(s.train, 150, 0),
		QueryCount: s.pick(s.queries, 30, 0),
		Seed:       s.seed,
	}
}

func (s sizes) exactAblation() experiments.ExactVsHeuristicConfig {
	return experiments.ExactVsHeuristicConfig{
		PairsPerLength: s.pick(s.queries, 20, 0),
		Seed:           s.seed,
	}
}
