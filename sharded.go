package ced

import (
	"context"
	"fmt"
	"math"

	"ced/internal/blob"
	"ced/internal/search"
	"ced/internal/shard"
)

// ShardedResult is one query answer from a ShardedIndex: a live element
// identified by its stable ID. IDs survive mutation — the initial corpus
// keeps its positions, Add mints the next integer, and deleted IDs are
// never reused — so they are durable handles where SearchResult.Index is
// only a position in a frozen corpus.
type ShardedResult struct {
	// ID is the element's stable global identifier.
	ID uint64
	// Value is the element itself.
	Value string
	// Label is the element's class label (zero for unlabelled corpora).
	Label int
	// Distance is the query-to-element distance.
	Distance float64
}

// ShardedIndexConfig tunes NewShardedIndex. The zero value builds a
// single-shard 16-pivot LAESA set — query-identical to NewLAESA, plus
// mutation.
type ShardedIndexConfig struct {
	// Shards is the partition count; <= 0 means 1.
	Shards int
	// Algorithm selects the per-shard base index, one of the kinds
	// NewIndex builds: "laesa" (default), "aesa", the dE-only "bktree" or
	// "linear".
	Algorithm string
	// Pivots is the LAESA base-prototype count; <= 0 defaults to 16.
	Pivots int
	// Seed drives randomised index construction (offset per shard).
	Seed int64
	// Workers bounds the query fan-out across shards; <= 0 uses all CPUs.
	Workers int
	// BuildWorkers sizes the per-shard index-construction pool; <= 0 uses
	// all CPUs.
	BuildWorkers int
	// CompactThreshold is the per-shard delta-plus-tombstone size that
	// schedules a background compaction; <= 0 uses the default (256).
	CompactThreshold int
}

// ShardedIndex is a mutable nearest-neighbour index: the corpus is
// partitioned across independent shards, queries fan out and merge with a
// shared pruning bound (the running k-th-best distance is passed into
// later shard queries, so the staged bound ladder rejects candidates
// cross-shard), and Add/Delete mutate the live set with epoch-based
// background compaction — queries never block on a rebuild. All methods
// are safe for concurrent use.
//
// For a frozen corpus the immutable Index remains the lighter choice; a
// one-shard ShardedIndex answers queries identically to the corresponding
// monolithic Index while adding mutation and snapshots.
type ShardedIndex struct {
	set *shard.Set
}

// NewShardedIndex builds a sharded mutable index over corpus. When the
// corpus is labelled (Dataset.Labelled), Classify is enabled and Add
// requires a meaningful label. The dE-only "bktree" is rejected with any
// other metric, exactly as in NewIndex.
func NewShardedIndex(corpus *Dataset, m Metric, cfg ShardedIndexConfig) (*ShardedIndex, error) {
	setCfg, err := shardedConfig(m, cfg)
	if err != nil {
		return nil, err
	}
	set, err := shard.New(corpus.Strings, corpus.Labels, setCfg)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{set: set}, nil
}

// shardedConfig resolves a public config into the internal one, validating
// the algorithm/metric pairing.
func shardedConfig(m Metric, cfg ShardedIndexConfig) (shard.Config, error) {
	if m == nil {
		return shard.Config{}, fmt.Errorf("ced: nil metric")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "laesa"
	}
	if cfg.Pivots <= 0 {
		cfg.Pivots = 16
	}
	im := internalMetric(m)
	build, err := shard.StandardBuild(cfg.Algorithm, im, cfg.Pivots, cfg.Seed, cfg.BuildWorkers)
	if err != nil {
		return shard.Config{}, fmt.Errorf("ced: %w", err)
	}
	return shard.Config{
		Shards:           cfg.Shards,
		Metric:           im,
		Build:            build,
		Algorithm:        cfg.Algorithm,
		Workers:          cfg.Workers,
		CompactThreshold: cfg.CompactThreshold,
	}, nil
}

// Add inserts value with the given label (ignored for unlabelled corpora)
// and returns its stable ID. The element is visible to every query issued
// after Add returns.
func (ix *ShardedIndex) Add(value string, label int) uint64 { return ix.set.Add(value, label) }

// Delete removes the element with the given ID, reporting whether it was
// live. Deleted elements never resurface in query results.
func (ix *ShardedIndex) Delete(id uint64) bool { return ix.set.Delete(id) }

// Nearest returns the nearest live element to q; ok is false when the
// index is empty.
func (ix *ShardedIndex) Nearest(q string) (ShardedResult, bool) {
	hits := ix.KNearest(q, 1)
	if len(hits) == 0 {
		return ShardedResult{}, false
	}
	return hits[0], true
}

// KNearest returns the k nearest live elements, closest first (ties by
// ID).
func (ix *ShardedIndex) KNearest(q string, k int) []ShardedResult {
	hits, _, _ := ix.set.Query(context.Background(), []rune(q), search.KNN(k, math.Inf(1)))
	return hitResults(hits)
}

// Radius returns every live element within distance r of q (inclusive),
// sorted by (distance, ID).
func (ix *ShardedIndex) Radius(q string, r float64) ([]ShardedResult, error) {
	hits, _, err := ix.set.Query(context.Background(), []rune(q), search.Within(r))
	return hitResults(hits), err
}

// Classify labels q with the class of its nearest live element; it fails
// on an unlabelled or empty index.
func (ix *ShardedIndex) Classify(q string) (ShardedResult, error) {
	if !ix.set.Labelled() {
		return ShardedResult{}, fmt.Errorf("ced: the index is unlabelled")
	}
	hit, ok := ix.Nearest(q)
	if !ok {
		return ShardedResult{}, fmt.Errorf("ced: empty index")
	}
	return hit, nil
}

// Len returns the live element count (base − tombstones + delta) in O(1)
// per shard.
func (ix *ShardedIndex) Len() int { return ix.set.Size() }

// Shards returns the partition count.
func (ix *ShardedIndex) Shards() int { return ix.set.Shards() }

// Algorithm returns the per-shard base index kind.
func (ix *ShardedIndex) Algorithm() string { return ix.set.Algorithm() }

// Compact folds every shard's mutation overlay into its base index and
// waits for in-flight background compactions — useful before SaveTo for a
// minimal, fully indexed snapshot. Background compaction also runs on its
// own once a shard's overlay outgrows the threshold.
func (ix *ShardedIndex) Compact() { ix.set.Compact() }

// SaveTo publishes the whole index — per shard: the base index snapshot,
// the uncompacted delta and the tombstones — as one consistent snapshot in
// store, a local directory created if missing (the same store as
// ServerConfig.Store). The manifest is written last, so a crash mid-save
// leaves the previous snapshot in store fully loadable.
// LoadShardedIndex restores it without recomputing any index-build
// distances.
func (ix *ShardedIndex) SaveTo(ctx context.Context, store string) error {
	st, err := blob.NewDirStore(store)
	if err != nil {
		return err
	}
	_, err = shard.NewSaver(st).Save(ctx, ix.set)
	return err
}

// LoadShardedIndex restores the newest snapshot SaveTo published in store,
// attaching m (which must match the saved metric by name, like
// LoadLAESAIndex). cfg supplies the builder for algorithms without a
// serialised index form and the worker/compaction tuning; cfg.Algorithm
// (default "laesa") must match the saved algorithm, and the shard count
// comes from the snapshot.
func LoadShardedIndex(ctx context.Context, store string, m Metric, cfg ShardedIndexConfig) (*ShardedIndex, error) {
	setCfg, err := shardedConfig(m, cfg)
	if err != nil {
		return nil, err
	}
	st, err := blob.NewDirStore(store)
	if err != nil {
		return nil, err
	}
	set, _, err := shard.LoadFromStore(ctx, st, setCfg)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{set: set}, nil
}

func hitResults(hits []shard.Hit) []ShardedResult {
	out := make([]ShardedResult, len(hits))
	for i, h := range hits {
		out[i] = ShardedResult{ID: h.ID, Value: h.Value, Label: h.Label, Distance: h.Distance}
	}
	return out
}
