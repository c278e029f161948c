package ced

import (
	"ced/internal/bulk"
	"ced/internal/metric"
	"ced/internal/serve"
)

// Pair is one query pair for the batch-distance APIs (BatchDistance,
// Server.BatchDistance, and the /distance/batch wire format, where it
// marshals as {"a": ..., "b": ...}).
type Pair = serve.Pair

// BatchDistance computes m.Distance for every pair in parallel, returning
// one distance per pair in input order. The pair list is split into
// contiguous per-worker chunks, each evaluated through a private metric
// session — steady-state evaluations through the contextual kernels
// allocate only the rune decodings of the pair — with no locking on the
// hot path. workers <= 0 uses all CPUs.
//
// Within a chunk, consecutive pairs sharing the same A — the shape of a
// spell-check batch, one query against many candidates — are resolved as
// one run through the session's multi-candidate kernel (metric.Batcher):
// the query is decoded once and its Myers pattern table built once for
// the whole run. Values are bit-identical to per-pair calls (the Batcher
// contract), so the grouping never changes results, only their cost.
//
// This is the bulk primitive behind the /distance/batch endpoint of
// cmd/cedserve; use a Server instead when the same strings recur across
// calls and the query cache pays off.
func BatchDistance(pairs []Pair, m Metric, workers int) []float64 {
	out := make([]float64, len(pairs))
	bulk.New(internalMetric(m)).FanChunks(len(pairs), workers, func(s metric.Metric, lo, hi int) {
		var bs [][]rune
		for rlo := lo; rlo < hi; {
			rhi := rlo + 1
			for rhi < hi && pairs[rhi].A == pairs[rlo].A {
				rhi++
			}
			bs = bs[:0]
			for i := rlo; i < rhi; i++ {
				bs = append(bs, []rune(pairs[i].B))
			}
			bulk.Row(s, []rune(pairs[rlo].A), bs, out[rlo:rhi])
			rlo = rhi
		}
	})
	return out
}
