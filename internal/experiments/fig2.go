package experiments

import (
	"fmt"
	"io"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/stats"
)

// Fig2Config parameterises Figure 2: histograms of the four normalised
// distances (dYB, dC,h, dMV, dmax) and of the plain Levenshtein distance
// over all pairs of the gene dataset.
//
// The paper used ~1,000 Listeria genes (kilobase lengths). The synthetic
// genes here are scaled down (see dataset.DNAConfig):
// dMV is cubic in the string length, so paper-scale strings would need
// hours; the histogram shapes are length-scale invariant.
type Fig2Config struct {
	Genes    int
	DNA      dataset.DNAConfig // Count is overridden with Genes
	BinWidth float64           // for the normalised distances
	Seed     int64
	Workers  int
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.Genes <= 0 {
		c.Genes = 60
	}
	if c.BinWidth <= 0 {
		c.BinWidth = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 2
	}
	if c.DNA.MinLen == 0 {
		c.DNA.MinLen = 60
	}
	if c.DNA.MaxLen == 0 {
		c.DNA.MaxLen = 240
	}
	if c.DNA.Families == 0 {
		c.DNA.Families = c.Genes / 10
	}
	c.DNA.Count = c.Genes
	return c
}

// Fig2Result holds the four normalised histograms (top panel) and the
// Levenshtein histogram (bottom panel).
type Fig2Result struct {
	Config     Fig2Config
	Names      []string           // dYB, dC,h, dMV, dmax
	Normalised []*stats.Histogram // parallel to Names
	Lev        *stats.Histogram
	Pairs      int
}

// RunFig2 regenerates Figure 2.
func RunFig2(cfg Fig2Config, progress Progress) Fig2Result {
	cfg = cfg.withDefaults()
	progress.printf("fig2: generating %d genes (lengths %d..%d)", cfg.Genes, cfg.DNA.MinLen, cfg.DNA.MaxLen)
	genes := dataset.DNA(cfg.DNA, cfg.Seed).Runes()

	normMetrics := []metric.Metric{
		metric.YujianBo(),
		metric.ContextualHeuristic(),
		metric.MarzalVidal(),
		metric.MaxNormalised(),
	}
	progress.printf("fig2: computing 4 normalised distances over %d pairs", len(genes)*(len(genes)-1)/2)
	normHists := pairHistogram(genes, normMetrics, cfg.BinWidth, cfg.Workers)

	// The Levenshtein histogram needs a bin width on the raw edit-distance
	// scale: ~50 bins over the maximum possible distance.
	maxLen := 0
	for _, g := range genes {
		if len(g) > maxLen {
			maxLen = len(g)
		}
	}
	levBin := float64(maxLen) / 50
	if levBin < 1 {
		levBin = 1
	}
	progress.printf("fig2: computing Levenshtein histogram (bin %.0f)", levBin)
	levHists := pairHistogram(genes, []metric.Metric{metric.Levenshtein()}, levBin, cfg.Workers)

	names := make([]string, len(normMetrics))
	for i, m := range normMetrics {
		names[i] = m.Name()
	}
	return Fig2Result{
		Config:     cfg,
		Names:      names,
		Normalised: normHists,
		Lev:        levHists[0],
		Pairs:      len(genes) * (len(genes) - 1) / 2,
	}
}

// Render prints both panels of Figure 2 as aligned series.
func (r Fig2Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 2 (top): histograms of normalised distances (genes, %d pairs)\n", r.Pairs)
	fmt.Fprintf(w, "%10s", "bin")
	for _, n := range r.Names {
		fmt.Fprintf(w, " %10s", n)
	}
	fmt.Fprintln(w)
	maxBins := 0
	for _, h := range r.Normalised {
		if len(h.Counts()) > maxBins {
			maxBins = len(h.Counts())
		}
	}
	for i := 0; i < maxBins; i++ {
		fmt.Fprintf(w, "%10.2f", float64(i)*r.Config.BinWidth)
		for _, h := range r.Normalised {
			c := 0
			if i < len(h.Counts()) {
				c = h.Counts()[i]
			}
			fmt.Fprintf(w, " %10d", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nFigure 2 (bottom): histogram of the Levenshtein distance (bin %.0f)\n", r.Lev.BinWidth())
	if err := r.Lev.WriteSeries(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nIntrinsic dimensionality of each distance on this sample:")
	for i, h := range r.Normalised {
		fmt.Fprintf(w, "  %-6s rho = %s\n", r.Names[i], fmtG(h.IntrinsicDim()))
	}
	fmt.Fprintf(w, "  %-6s rho = %s\n", "dE", fmtG(r.Lev.IntrinsicDim()))
	return nil
}
