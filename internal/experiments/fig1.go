package experiments

import (
	"fmt"
	"io"

	"ced/internal/core"
	"ced/internal/dataset"
	"ced/internal/pool"
	"ced/internal/stats"
)

// Fig1Config parameterises Figure 1: histograms of the exact contextual
// distance dC and the heuristic dC,h over all pairs of a Spanish-dictionary
// sample. The paper used 8,000 words; the default here is 800 (319,600
// pairs), which already reproduces the overlap the figure shows.
type Fig1Config struct {
	Words    int
	BinWidth float64
	Seed     int64
	Workers  int
}

func (c Fig1Config) withDefaults() Fig1Config {
	if c.Words <= 0 {
		c.Words = 800
	}
	if c.BinWidth <= 0 {
		c.BinWidth = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig1Result holds both histograms plus the §4.1 agreement statistics that
// motivate using the heuristic.
type Fig1Result struct {
	Config    Fig1Config
	Exact     *stats.Histogram // dC
	Heuristic *stats.Histogram // dC,h
	// Agreement is the fraction of pairs with dC,h == dC (the paper
	// reports ~0.90); MaxGap and MeanGap quantify the difference on the
	// disagreeing pairs.
	Agreement float64
	MaxGap    float64
	MeanGap   float64
	Pairs     int
}

// RunFig1 regenerates Figure 1.
func RunFig1(cfg Fig1Config, progress Progress) Fig1Result {
	cfg = cfg.withDefaults()
	progress.printf("fig1: generating %d Spanish-like words (seed %d)", cfg.Words, cfg.Seed)
	words := dataset.Spanish(cfg.Words, cfg.Seed).Runes()

	// One pass computing both distances per pair, tracking agreement, so
	// this experiment runs its own fan rather than pairHistogram. Each
	// striped worker owns a shard with a private distance workspace; the
	// shards merge in worker order.
	type shard struct {
		ws          *core.Workspace
		exact, heur *stats.Histogram
		gaps        gapStats
	}
	workers := pool.Workers(len(words), cfg.Workers)
	shards := make([]shard, workers)
	for w := range shards {
		shards[w] = shard{ws: core.NewWorkspace(), exact: stats.NewHistogram(cfg.BinWidth), heur: stats.NewHistogram(cfg.BinWidth)}
	}
	pool.FanWorker(len(words), workers, func(w, i int) {
		s := &shards[w]
		for j := i + 1; j < len(words); j++ {
			de := s.ws.Distance(words[i], words[j])
			dh := s.ws.HeuristicCompute(words[i], words[j]).Distance
			s.exact.Add(de)
			s.heur.Add(dh)
			s.gaps.add(de, dh)
		}
	})
	res := Fig1Result{
		Config:    cfg,
		Exact:     stats.NewHistogram(cfg.BinWidth),
		Heuristic: stats.NewHistogram(cfg.BinWidth),
	}
	var gaps gapStats
	for _, s := range shards {
		res.Exact.Merge(s.exact)
		res.Heuristic.Merge(s.heur)
		gaps.merge(s.gaps)
	}
	res.Pairs, res.MaxGap, res.MeanGap = gaps.pairs, gaps.maxGap, gaps.meanGap()
	if res.Pairs > 0 {
		res.Agreement = float64(gaps.agree) / float64(res.Pairs)
	}
	progress.printf("fig1: %d pairs, agreement %.1f%%", res.Pairs, 100*res.Agreement)
	return res
}

// Render prints the two histogram series side by side plus the agreement
// statistics — the content of Figure 1 and the §4.1 paragraph.
func (r Fig1Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 1: histograms of dC and dC,h (Spanish dictionary, %d words, %d pairs)\n",
		r.Config.Words, r.Pairs)
	fmt.Fprintf(w, "agreement dC,h == dC: %.2f%% of pairs; max gap %.4f; mean gap (disagreeing) %.4f\n\n",
		100*r.Agreement, r.MaxGap, r.MeanGap)
	fmt.Fprintf(w, "%10s %12s %12s\n", "bin", "dC", "dC,h")
	eb, hb := r.Exact.Bins(), r.Heuristic.Bins()
	n := len(eb)
	if len(hb) > n {
		n = len(hb)
	}
	for i := 0; i < n; i++ {
		var ec, hc int
		var lo float64
		if i < len(eb) {
			ec, lo = eb[i].Count, eb[i].Lo
		}
		if i < len(hb) {
			hc, lo = hb[i].Count, hb[i].Lo
		}
		fmt.Fprintf(w, "%10.2f %12d %12d\n", lo, ec, hc)
	}
	fmt.Fprintln(w, "\ndC histogram:")
	if err := r.Exact.Render(w, 60); err != nil {
		return err
	}
	fmt.Fprintln(w, "\ndC,h histogram:")
	return r.Heuristic.Render(w, 60)
}
