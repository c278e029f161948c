package clustertest

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
	"ced/internal/serve"
)

// benchCorpus is shared by the cluster and monolithic k-NN benchmarks so
// the pair isolates the wire + coordination overhead, not a data change.
const (
	benchCorpusSize = 2000
	benchK          = 3
)

func benchQueries(n int) []string {
	d := dataset.Spanish(benchCorpusSize, 5)
	qs := make([]string, n)
	for i := range qs {
		qs[i] = d.Strings[(i*37)%len(d.Strings)] + "s"
	}
	return qs
}

// BenchmarkClusterKNN measures a k-NN query through the full distributed
// stack: coordinator fan-out over a loopback 2-node, 2-shard, R=2 cluster,
// JSON wire hops, merge with the cross-shard bound. Compare against
// BenchmarkMonolithicKNN (same corpus, same logical sharding, no wire) for
// the distribution overhead; see BENCH.md "Cluster benchmarks".
func BenchmarkClusterKNN(b *testing.B) {
	d := dataset.Spanish(benchCorpusSize, 5)
	c := Start(b, Config{
		Nodes: 2, Shards: 2, Replicas: 2,
		Algorithm: "laesa", Pivots: 16, Seed: 1,
		Timeout: 30 * time.Second,
	}, d.Strings, nil)
	qs := benchQueries(64)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Coord.Query(ctx, qs[i%len(qs)], search.KNN(benchK, math.Inf(1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonolithicKNN is the in-process baseline for BenchmarkClusterKNN:
// the same corpus behind a 2-shard serving engine, no coordinator and no
// wire.
func BenchmarkMonolithicKNN(b *testing.B) {
	d := dataset.Spanish(benchCorpusSize, 5)
	m, err := metric.ByName("dC")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(d.Strings, nil, m, serve.Config{
		Algorithm: "laesa", Pivots: 16, Seed: 1, Shards: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	qs := benchQueries(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.KNearestCtx(context.Background(), qs[i%len(qs)], benchK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterKNNSlowReplica measures tail latency with one of the two
// nodes serving correctly but 5ms late — the failure hedging exists for.
// hedge=on races the other replica after a fixed 1ms; hedge=off waits the
// slow node out. Each sub-benchmark reports the measured p99 in µs
// alongside ns/op: the acceptance story is the p99 gap between the two.
func BenchmarkClusterKNNSlowReplica(b *testing.B) {
	const slow = 5 * time.Millisecond
	cases := []struct {
		name  string
		hedge time.Duration
	}{
		{"hedge=on", 1 * time.Millisecond},
		{"hedge=off", -1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			d := dataset.Spanish(benchCorpusSize, 5)
			c := Start(b, Config{
				Nodes: 2, Shards: 2, Replicas: 2,
				Algorithm: "laesa", Pivots: 16, Seed: 1,
				Timeout:    30 * time.Second,
				HedgeAfter: tc.hedge,
			}, d.Strings, nil)
			c.Nodes[1].SetSlow(slow)
			qs := benchQueries(64)
			ctx := context.Background()
			lats := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, _, err := c.Coord.Query(ctx, qs[i%len(qs)], search.KNN(benchK, math.Inf(1))); err != nil {
					b.Fatal(err)
				}
				lats = append(lats, time.Since(t0))
			}
			b.StopTimer()
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			idx := int(float64(len(lats)) * 0.99)
			if idx >= len(lats) {
				idx = len(lats) - 1
			}
			b.ReportMetric(float64(lats[idx])/1e3, "p99-µs")
		})
	}
}
