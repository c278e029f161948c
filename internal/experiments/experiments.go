// Package experiments reproduces every table and figure of the paper's
// evaluation section (§4). Each experiment has a Config with deterministic
// defaults, a Run function returning a typed result, and a Render method
// that prints the same rows/series the paper reports.
//
// Dataset sizes default to laptop-friendly scales (the originals ran on a
// 2008 testbed for hours); every size is configurable through cedexp's
// flags (README, "`cedexp` — reproduce the paper"). The *shape* of each
// result — orderings, crossovers, relative factors — is what the
// reproduction preserves.
package experiments

import (
	"fmt"
	"math"
	"time"

	"ced/internal/bulk"
	"ced/internal/metric"
	"ced/internal/pool"
	"ced/internal/stats"
)

// pairHistogram fills one histogram per metric with the distances over all
// unordered pairs of data. Each metric's rows are striped over the workers,
// each worker evaluating through a private session into a private
// histogram (row i costs n−i−1 pairs, so the stride balances load well
// enough). Results are deterministic for a worker count: session values are
// bit-identical to the plain metrics', and the per-worker histograms merge
// in worker order.
func pairHistogram(data [][]rune, metrics []metric.Metric, binWidth float64, workers int) []*stats.Histogram {
	n := len(data)
	workers = pool.Workers(n, workers)
	out := make([]*stats.Histogram, len(metrics))
	for k, m := range metrics {
		shards := make([]*stats.Histogram, workers)
		for w := range shards {
			shards[w] = stats.NewHistogram(binWidth)
		}
		bulk.New(m).FanWorker(n, workers, func(s metric.Metric, w, i int) {
			for j := i + 1; j < n; j++ {
				shards[w].Add(s.Distance(data[i], data[j]))
			}
		})
		out[k] = stats.NewHistogram(binWidth)
		for _, h := range shards {
			out[k].Merge(h)
		}
	}
	return out
}

// pairSummaries is pairHistogram without the binning: one distance Summary
// per metric over all unordered pairs. Used by Table 1, where only µ and σ²
// matter.
func pairSummaries(data [][]rune, metrics []metric.Metric, workers int) []*stats.Summary {
	hists := pairHistogram(data, metrics, 1e9, workers) // single giant bin
	out := make([]*stats.Summary, len(metrics))
	for k, h := range hists {
		s := h.Summary // copy
		out[k] = &s
	}
	return out
}

// measureLatency returns the mean wall-clock cost of one m.Distance call
// over the given sample pairs. The sweep experiments report estimated
// search times as computations × latency because they memoise distances to
// keep cubic metrics tractable, so in-situ timing would measure cache
// lookups.
func measureLatency(m metric.Metric, pairs [][2][]rune) time.Duration {
	if len(pairs) == 0 {
		return 0
	}
	// Warm up once (first-call allocator effects).
	m.Distance(pairs[0][0], pairs[0][1])
	start := time.Now()
	for _, p := range pairs {
		m.Distance(p[0], p[1])
	}
	return time.Since(start) / time.Duration(len(pairs))
}

// samplePairs builds up to count (query, corpus) pairs for latency
// measurement, cycling deterministically through both sets.
func samplePairs(queries, corpus [][]rune, count int) [][2][]rune {
	if len(queries) == 0 || len(corpus) == 0 || count <= 0 {
		return nil
	}
	out := make([][2][]rune, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, [2][]rune{queries[i%len(queries)], corpus[(i*7+3)%len(corpus)]})
	}
	return out
}

// meanStd returns the mean and population standard deviation of vals.
func meanStd(vals []float64) (mean, std float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(std / float64(len(vals)))
}

// Progress receives human-readable status lines from long experiments; nil
// disables reporting.
type Progress func(format string, args ...interface{})

func (p Progress) printf(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// fmtG formats a float compactly for tables.
func fmtG(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
