package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"ced/internal/dataset"
	"ced/internal/metric"
)

// Table1Config parameterises Table 1: the intrinsic dimensionality
// ρ = µ²/(2σ²) of five distances over the three datasets. The paper used
// 8,000 Spanish words and ~1,000 strings for digits and genes; defaults are
// scaled down because dMV is cubic in string length.
type Table1Config struct {
	SpanishWords int
	DigitCount   int
	GeneCount    int
	Digits       dataset.DigitsConfig // Count overridden with DigitCount
	DNA          dataset.DNAConfig    // Count overridden with GeneCount
	Seed         int64
	Workers      int
}

func (c Table1Config) withDefaults() Table1Config {
	if c.SpanishWords <= 0 {
		c.SpanishWords = 600
	}
	if c.DigitCount <= 0 {
		c.DigitCount = 100
	}
	if c.GeneCount <= 0 {
		c.GeneCount = 60
	}
	if c.Seed == 0 {
		c.Seed = 3
	}
	if c.DNA.MinLen == 0 {
		c.DNA.MinLen = 60
	}
	if c.DNA.MaxLen == 0 {
		c.DNA.MaxLen = 240
	}
	c.Digits.Count = c.DigitCount
	c.DNA.Count = c.GeneCount
	return c
}

// Table1Result is the ρ matrix: one row per distance, one column per
// dataset, in the paper's order.
type Table1Result struct {
	Config    Table1Config
	Distances []string // dYB, dC,h, dMV, dmax, dE
	Datasets  []string // Spanish D., hand. digits, genes
	Rho       [][]float64
	Mean      [][]float64 // distance-histogram means (for inspection)
	Std       [][]float64
}

// RunTable1 regenerates Table 1.
func RunTable1(cfg Table1Config, progress Progress) Table1Result {
	cfg = cfg.withDefaults()
	metrics := []metric.Metric{
		metric.YujianBo(),
		metric.ContextualHeuristic(),
		metric.MarzalVidal(),
		metric.MaxNormalised(),
		metric.Levenshtein(),
	}
	res := Table1Result{
		Config:   cfg,
		Datasets: []string{"Spanish D.", "hand. digits", "genes"},
	}
	for _, m := range metrics {
		res.Distances = append(res.Distances, m.Name())
	}
	res.Rho = make([][]float64, len(metrics))
	res.Mean = make([][]float64, len(metrics))
	res.Std = make([][]float64, len(metrics))
	for i := range res.Rho {
		res.Rho[i] = make([]float64, len(res.Datasets))
		res.Mean[i] = make([]float64, len(res.Datasets))
		res.Std[i] = make([]float64, len(res.Datasets))
	}

	sets := [][][]rune{
		dataset.Spanish(cfg.SpanishWords, cfg.Seed).Runes(),
		dataset.Digits(cfg.Digits, cfg.Seed+1).Runes(),
		dataset.DNA(cfg.DNA, cfg.Seed+2).Runes(),
	}
	for d, data := range sets {
		progress.printf("table1: dataset %q (%d strings, %d pairs)",
			res.Datasets[d], len(data), len(data)*(len(data)-1)/2)
		sums := pairSummaries(data, metrics, cfg.Workers)
		for i, s := range sums {
			res.Rho[i][d] = s.IntrinsicDim()
			res.Mean[i][d] = s.Mean()
			res.Std[i][d] = s.Std()
		}
	}
	return res
}

// Render prints the ρ table in the paper's layout.
func (r Table1Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Table 1: intrinsic dimensionality rho = mu^2/(2 sigma^2)\n")
	fmt.Fprintf(w, "(%d Spanish words, %d digits, %d genes)\n\n",
		r.Config.SpanishWords, r.Config.DigitCount, r.Config.GeneCount)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Distances")
	for _, d := range r.Datasets {
		fmt.Fprintf(tw, "\t%s", d)
	}
	fmt.Fprintln(tw)
	for i, name := range r.Distances {
		fmt.Fprint(tw, name)
		for d := range r.Datasets {
			fmt.Fprintf(tw, "\t%s", fmtG(r.Rho[i][d]))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
