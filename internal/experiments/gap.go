package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"ced/internal/core"
	"ced/internal/dataset"
	"ced/internal/pool"
)

// GapConfig parameterises the §4.1 heuristic study: over each dataset, how
// often does dC,h equal dC, and how large is the gap when it does not? The
// paper reports ~90% agreement, with maximum differences of 0.03 on the
// dictionary and 0.008 on the contour strings.
type GapConfig struct {
	SpanishWords int
	DigitCount   int
	GeneCount    int
	// MaxPairs bounds the number of sampled pairs per dataset (the exact
	// dC is cubic; sampling keeps long-string datasets affordable).
	MaxPairs int
	Digits   dataset.DigitsConfig
	DNA      dataset.DNAConfig
	Seed     int64
	Workers  int
}

func (c GapConfig) withDefaults() GapConfig {
	if c.SpanishWords <= 0 {
		c.SpanishWords = 400
	}
	if c.DigitCount <= 0 {
		c.DigitCount = 80
	}
	if c.GeneCount <= 0 {
		c.GeneCount = 40
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 4000
	}
	if c.Digits.Grid == 0 {
		c.Digits.Grid = 32
	}
	if c.DNA.MinLen == 0 {
		c.DNA.MinLen = 60
	}
	if c.DNA.MaxLen == 0 {
		c.DNA.MaxLen = 180
	}
	if c.Seed == 0 {
		c.Seed = 6
	}
	return c
}

// GapResult reports the agreement statistics per dataset.
type GapResult struct {
	Config    GapConfig
	Datasets  []string
	Pairs     []int
	Agreement []float64 // fraction with dC,h == dC
	MaxGap    []float64
	MeanGap   []float64 // over disagreeing pairs
}

// RunGap regenerates the §4.1 agreement statistics.
func RunGap(cfg GapConfig, progress Progress) GapResult {
	cfg = cfg.withDefaults()
	digitsCfg := cfg.Digits
	digitsCfg.Count = cfg.DigitCount
	dnaCfg := cfg.DNA
	dnaCfg.Count = cfg.GeneCount
	sets := []struct {
		name string
		data [][]rune
	}{
		{"Spanish D.", dataset.Spanish(cfg.SpanishWords, cfg.Seed).Runes()},
		{"hand. digits", dataset.Digits(digitsCfg, cfg.Seed+1).Runes()},
		{"genes", dataset.DNA(dnaCfg, cfg.Seed+2).Runes()},
	}
	res := GapResult{Config: cfg}
	for _, set := range sets {
		progress.printf("gap: dataset %q", set.name)
		pairs := samplePairIndices(len(set.data), cfg.MaxPairs, cfg.Seed+7)
		// Each striped worker sums into a private partial with a private
		// workspace; the partials merge in worker order, so the float sum
		// does not depend on which worker finishes first.
		type partial struct {
			ws   *core.Workspace
			gaps gapStats
		}
		parts := make([]partial, pool.Workers(len(pairs), cfg.Workers))
		for w := range parts {
			parts[w].ws = core.NewWorkspace()
		}
		pool.FanWorker(len(pairs), len(parts), func(w, idx int) {
			p := &parts[w]
			i, j := pairs[idx][0], pairs[idx][1]
			de := p.ws.Distance(set.data[i], set.data[j])
			p.gaps.add(de, p.ws.HeuristicCompute(set.data[i], set.data[j]).Distance)
		})
		var gaps gapStats
		for _, p := range parts {
			gaps.merge(p.gaps)
		}
		res.Datasets = append(res.Datasets, set.name)
		res.Pairs = append(res.Pairs, len(pairs))
		res.Agreement = append(res.Agreement, float64(gaps.agree)/float64(len(pairs)))
		res.MaxGap = append(res.MaxGap, gaps.maxGap)
		res.MeanGap = append(res.MeanGap, gaps.meanGap())
	}
	return res
}

// gapStats accumulates the §4.1 agreement statistics of dC,h against dC
// over a set of pairs: how many pairs agree, and the largest and the summed
// gap of those that do not.
type gapStats struct {
	pairs, agree   int
	maxGap, sumGap float64
}

// add records one pair's exact and heuristic distances.
func (g *gapStats) add(de, dh float64) {
	g.pairs++
	gap := dh - de
	if gap <= 1e-12 {
		g.agree++
		return
	}
	g.sumGap += gap
	g.maxGap = max(g.maxGap, gap)
}

// merge adds o's pairs to g.
func (g *gapStats) merge(o gapStats) {
	g.pairs += o.pairs
	g.agree += o.agree
	g.sumGap += o.sumGap
	g.maxGap = max(g.maxGap, o.maxGap)
}

// meanGap returns the mean gap over the disagreeing pairs, 0 when every
// pair agrees.
func (g gapStats) meanGap() float64 {
	if n := g.pairs - g.agree; n > 0 {
		return g.sumGap / float64(n)
	}
	return 0
}

// samplePairIndices returns up to maxPairs distinct unordered pairs of
// [0, n), all pairs when fewer exist.
func samplePairIndices(n, maxPairs int, seed int64) [][2]int {
	total := n * (n - 1) / 2
	if total <= maxPairs {
		out := make([][2]int, 0, total)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool, maxPairs)
	out := make([][2]int, 0, maxPairs)
	for len(out) < maxPairs {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		p := [2]int{i, j}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// Render prints the agreement table.
func (r GapResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "Heuristic agreement (dC,h vs dC), cf. §4.1 of the paper:")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tpairs\tagreement\tmax gap\tmean gap (disagreeing)")
	for i, name := range r.Datasets {
		fmt.Fprintf(tw, "%s\t%d\t%.2f%%\t%.4f\t%.4f\n",
			name, r.Pairs[i], 100*r.Agreement[i], r.MaxGap[i], r.MeanGap[i])
	}
	return tw.Flush()
}
