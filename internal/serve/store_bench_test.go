package serve

import (
	"context"
	"fmt"
	"testing"

	"ced/internal/blob"
	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/shard"
)

// The snapshot benchmarks price the two claims the durable-snapshot
// pipeline makes: an incremental save after light churn costs a fraction
// of a full one (only changed shards re-upload), and a cold start from the
// store beats rebuilding the index from the raw corpus. Both run against
// an in-memory store so the numbers isolate the pipeline (encode, hash,
// skip logic) from disk or network variance.

const benchSnapCorpus = 4000

func newBenchStoreEngine(b *testing.B, st blob.Store) *Engine {
	b.Helper()
	d := dataset.Spanish(benchSnapCorpus, 1)
	labels := make([]int, len(d.Strings))
	for i := range labels {
		labels[i] = i % 3
	}
	e, err := New(d.Strings, labels, metric.ContextualHeuristic(), Config{
		Algorithm: "laesa", Pivots: 16, Shards: 4, Store: st,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkSnapshotSave measures one store save per iteration. mode=full
// starts each save from a fresh saver with no skip baseline, so every
// shard base and overlay re-uploads — the cost a naive non-incremental
// pipeline would pay every time. mode=incremental performs one Add between
// saves, so only the mutated shard's overlay (plus the manifest) is
// uploaded. Both report uploaded-KB per operation alongside ns/op.
func BenchmarkSnapshotSave(b *testing.B) {
	for _, mode := range []string{"full", "incremental"} {
		b.Run("mode="+mode, func(b *testing.B) {
			ctx := context.Background()
			st := blob.NewMemStore()
			e := newBenchStoreEngine(b, st)
			if _, err := e.SaveToStore(ctx); err != nil {
				b.Fatal(err)
			}
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "full" {
					e.saver = shard.NewSaver(st)
				} else {
					if _, err := e.Add(context.Background(), fmt.Sprintf("bench%d", i), 0); err != nil {
						b.Fatal(err)
					}
				}
				stats, err := e.SaveToStore(ctx)
				if err != nil {
					b.Fatal(err)
				}
				bytes += stats.BytesUploaded
			}
			b.ReportMetric(float64(bytes)/float64(b.N)/1024, "uploaded-KB/op")
		})
	}
}

// BenchmarkSnapshotColdStart restores an engine from the store manifest —
// decode + integrity checks, no distance computations — against
// BenchmarkSnapshotRebuild, the same corpus built from scratch (LAESA
// pivot selection is the dominant cost). The ratio is what -load-snapshot
// buys a restarting server.
func BenchmarkSnapshotColdStart(b *testing.B) {
	ctx := context.Background()
	st := blob.NewMemStore()
	e := newBenchStoreEngine(b, st)
	if _, err := e.SaveToStore(ctx); err != nil {
		b.Fatal(err)
	}
	cold := newBenchStoreEngine(b, st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cold.LoadFromStore(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRebuild is the cold-start baseline: constructing the
// same engine from the raw corpus.
func BenchmarkSnapshotRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		newBenchStoreEngine(b, nil)
	}
}
