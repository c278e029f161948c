package shard

import (
	"fmt"
	"testing"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
)

// The shard benchmarks measure the two costs the ISSUE 5 acceptance pins:
// the overhead of wrapping a monolithic index in a 1-shard Set (must stay
// within 10%) and the fan-out/merge overhead at 4 and 8 shards on one
// machine (the win sharding buys is horizontal: per-shard rebuild cost and
// lock granularity, not single-box latency).

const benchCorpusSize = 4000

func benchQueries(d *dataset.Dataset, n int) [][]rune {
	qs := make([][]rune, n)
	for i := 0; i < n; i++ {
		w := []rune(d.Strings[(i*101)%len(d.Strings)])
		// Perturb: drop the last rune so queries are near misses, the
		// k-NN regime the ladder prices.
		if len(w) > 1 {
			w = w[:len(w)-1]
		}
		qs[i] = w
	}
	return qs
}

// BenchmarkShardKNNMonolithic is the baseline: the raw LAESA index the
// 1-shard Set wraps, queried directly.
func BenchmarkShardKNNMonolithic(b *testing.B) {
	d := dataset.Spanish(benchCorpusSize, 1)
	m := metric.Contextual()
	corpus := make([][]rune, len(d.Strings))
	for i, v := range d.Strings {
		corpus[i] = []rune(v)
	}
	ix := search.NewLAESAWorkers(corpus, m, 16, search.MaxSum, 1, 0)
	qs := benchQueries(d, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNearest(qs[i%len(qs)], 3)
	}
}

// BenchmarkShardKNN queries a shard.Set at 1, 4 and 8 shards; shards=1 vs
// the monolithic baseline is the wrapper overhead, the rest is fan-out +
// merge + the cross-shard bound's pruning.
func BenchmarkShardKNN(b *testing.B) {
	d := dataset.Spanish(benchCorpusSize, 1)
	m := metric.Contextual()
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := New(d.Strings, nil, Config{
				Shards:    shards,
				Metric:    m,
				Build:     testBuilder(m, 16, 1),
				Algorithm: "laesa",
			})
			if err != nil {
				b.Fatal(err)
			}
			qs := benchQueries(d, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				knn(s, qs[i%len(qs)], 3) //ced:stagecount-ok: benchmark measures latency only.
			}
		})
	}
}

// BenchmarkShardMutate measures the Add/Delete publish cost (copy-on-write
// delta under a short lock) with background compaction disabled by a high
// threshold, then with a realistic one (compaction cost amortises in).
func BenchmarkShardMutate(b *testing.B) {
	d := dataset.Spanish(1000, 1)
	m := metric.Contextual()
	for _, tc := range []struct {
		name      string
		threshold int
	}{
		{"nocompact", 1 << 30},
		{"compact=256", 256},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := New(d.Strings, nil, Config{
				Shards:           4,
				Metric:           m,
				Build:            testBuilder(m, 8, 1),
				Algorithm:        "laesa",
				CompactThreshold: tc.threshold,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := s.Add("palabra", 0)
				s.Delete(id)
			}
			b.StopTimer()
			s.Wait()
		})
	}
}
