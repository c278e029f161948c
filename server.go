package ced

import (
	"context"
	"net/http"
	"time"

	"ced/internal/blob"
	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// Neighbor is one k-NN answer element returned by the serving layer. It
// aliases the internal serve type so Server results marshal to the same
// JSON the HTTP API emits.
type Neighbor = serve.Neighbor

// Prediction is one nearest-neighbour classification answer from the
// serving layer (the paper's §4.4 decision rule applied to a single query).
type Prediction = serve.Prediction

// ServerInfo is the engine snapshot reported by Server.Info and the
// /healthz endpoint: index and metric identity, corpus size, request and
// cache counters.
type ServerInfo = serve.Info

// ServerConfig configures NewServer. The zero value serves the corpus
// through a 16-pivot LAESA index with the dC,h heuristic metric, all CPUs
// in the batch worker pool, and a 4096-entry query cache.
type ServerConfig struct {
	// Algorithm selects the search index, one of the kinds NewIndex
	// builds: "laesa" (default), "aesa" (full-matrix preprocessing —
	// quadratic in the corpus size), "bktree" (requires Metric dE) or
	// "linear".
	Algorithm string
	// Metric is the distance to serve; nil defaults to
	// ContextualHeuristic (dC,h), the variant the paper uses at scale.
	Metric Metric
	// Pivots is the LAESA base-prototype count; <= 0 defaults to 16.
	Pivots int
	// Seed drives randomised index construction; a fixed seed rebuilds an
	// identical index.
	Seed int64
	// Workers sizes the batch worker pool; <= 0 uses all CPUs.
	Workers int
	// BuildWorkers sizes the index-construction worker pool: preprocessing
	// distance evaluations (the LAESA pivot matrix, the AESA matrix,
	// BK-tree levels) fan over this many goroutines, which bounds the
	// server's cold-start time; <= 0 uses all CPUs. The built index is
	// bit-identical for any value.
	BuildWorkers int
	// CacheSize bounds the cache of query→rune decodings; < 0
	// disables the cache and 0 defaults to 4096 entries.
	CacheSize int
	// Shards partitions the corpus across this many independent indexes
	// (round-robin by stable element ID): queries fan out and merge with
	// a shared pruning bound, and Add/Delete mutate the live set with
	// epoch-based compaction. <= 0 means 1 — a single shard answers
	// exactly like the monolithic engine.
	Shards int
	// CompactThreshold is the per-shard delta-plus-tombstone size that
	// schedules a background compaction after mutations; <= 0 uses the
	// default (256).
	CompactThreshold int
	// Store names a durable blob store for incremental snapshots: a local
	// directory, created if missing (cedserve -store). When set,
	// /snapshot/save publishes a consistent manifest-addressed snapshot
	// into the store — re-uploading only the shards that changed since the
	// last one — and /snapshot/load cold-starts from the newest manifest
	// without recomputing a single index-build distance. Empty disables
	// both endpoints and SaveToStore/LoadFromStore.
	Store string
	// SnapshotEvery triggers a background store snapshot once that many
	// mutations have accumulated since the last one (single-flight, with
	// a retry cool-down after failures); <= 0 leaves snapshots manual.
	// Requires Store.
	SnapshotEvery int
	// MaxInFlight bounds concurrently executing query requests (admission
	// control): excess requests wait up to MaxQueueWaitMS for a slot and
	// are then shed with 429 + Retry-After. /healthz, mutations and
	// snapshots stay exempt. <= 0 disables admission control.
	MaxInFlight int
	// MaxQueueWaitMS is the shedding queue wait in milliseconds; <= 0
	// uses the default (100ms). Ignored without MaxInFlight.
	MaxQueueWaitMS int
	// RetryAfter is the Retry-After hint (seconds) sent with a 429; <= 0
	// defaults to 1. Ignored without MaxInFlight.
	RetryAfter int
}

// Server is the embeddable batch-serving engine behind cmd/cedserve: a
// corpus, a metric-space index and a worker pool, exposed both as Go
// methods and as an http.Handler. Construction costs the index
// preprocessing distances (pivots×n for LAESA, O(n log n) for a BK-tree);
// every later query reports how many distance computations it spent — the
// cost measure of the paper's Figures 3 and 4. All methods are safe for
// concurrent use.
type Server struct {
	eng *serve.Engine
}

// NewServer builds a serving engine over corpus. When the corpus is
// labelled (Dataset.Labelled), the classify endpoints are enabled.
func NewServer(corpus *Dataset, cfg ServerConfig) (*Server, error) {
	m := cfg.Metric
	if m == nil {
		m = ContextualHeuristic()
	}
	cache := cfg.CacheSize
	switch {
	case cache == 0:
		cache = 4096
	case cache < 0:
		cache = 0
	}
	var store blob.Store
	if cfg.Store != "" {
		var err error
		if store, err = blob.NewDirStore(cfg.Store); err != nil {
			return nil, err
		}
	}
	eng, err := serve.New(corpus.Strings, corpus.Labels, internalMetric(m), serve.Config{
		Algorithm:        cfg.Algorithm,
		Pivots:           cfg.Pivots,
		Seed:             cfg.Seed,
		Workers:          cfg.Workers,
		BuildWorkers:     cfg.BuildWorkers,
		CacheSize:        cache,
		Shards:           cfg.Shards,
		CompactThreshold: cfg.CompactThreshold,
		Store:            store,
		SnapshotEvery:    cfg.SnapshotEvery,
		MaxInFlight:      cfg.MaxInFlight,
		MaxQueueWait:     time.Duration(cfg.MaxQueueWaitMS) * time.Millisecond,
		RetryAfter:       cfg.RetryAfter,
	})
	if err != nil {
		return nil, err
	}
	return &Server{eng: eng}, nil
}

// Handler returns the JSON HTTP API over this server: /healthz, /distance,
// /knn, /classify and their /batch variants. See cmd/cedserve for the
// standalone daemon and README.md for the wire format.
func (s *Server) Handler() http.Handler { return serve.NewHandler(s.eng) }

// Info returns the current engine snapshot (corpus size, request count,
// cache hit statistics).
func (s *Server) Info() ServerInfo { return s.eng.Info() }

// Distance computes the served metric between a and b, returning the value
// and the number of distance computations spent (always 1).
func (s *Server) Distance(a, b string) (float64, int) {
	d, st := s.eng.Distance(a, b)
	return d, st.Computations
}

// BatchDistance evaluates the served metric on every pair using the worker
// pool, returning one distance per pair (in order) and the total
// computation count. For a one-off batch without a Server, use the
// package-level BatchDistance.
func (s *Server) BatchDistance(pairs []Pair) ([]float64, int) {
	ds, n, _ := s.BatchDistanceCtx(context.Background(), pairs)
	return ds, n
}

// BatchDistanceCtx is BatchDistance with cooperative cancellation: the
// striped workers poll ctx between pairs and a cancelled batch returns
// ctx's error with no output.
func (s *Server) BatchDistanceCtx(ctx context.Context, pairs []Pair) ([]float64, int, error) {
	ds, st, err := s.eng.BatchDistanceCtx(ctx, pairs)
	return ds, st.Computations, err
}

// KNearest returns the k nearest corpus elements to q, closest first, with
// the distance computations the index spent. The HTTP handler additionally
// reports how many of those evaluations each bound-ladder rung rejected;
// see the "rejections" object in the response metadata.
func (s *Server) KNearest(q string, k int) ([]Neighbor, int, error) {
	return s.KNearestCtx(context.Background(), q, k)
}

// KNearestCtx is KNearest with cooperative cancellation: the index scans
// poll ctx every few candidates, a cancelled query stops computing and
// returns ctx's error (context.Canceled or context.DeadlineExceeded) with
// the distance evaluations spent before the stop, and an uncancelled query
// is bit-identical to KNearest.
func (s *Server) KNearestCtx(ctx context.Context, q string, k int) ([]Neighbor, int, error) {
	return neighbors(s.eng.KNearestCtx(ctx, q, k))
}

// Radius returns every corpus element within distance r of q (inclusive),
// sorted by (distance, ID), with the distance computations spent. Both the
// result set and the pruning behaviour are deterministic: r itself bounds
// every shard, so there is no run-to-run variance to account for.
func (s *Server) Radius(q string, r float64) ([]Neighbor, int, error) {
	return s.RadiusCtx(context.Background(), q, r)
}

// RadiusCtx is Radius with cooperative cancellation (see KNearestCtx).
func (s *Server) RadiusCtx(ctx context.Context, q string, r float64) ([]Neighbor, int, error) {
	return neighbors(s.eng.Query(ctx, q, search.Within(r)))
}

// neighbors converts an engine answer to the facade's form: no neighbours
// on error, the computations spent either way.
func neighbors(hits []shard.Hit, st serve.Stats, err error) ([]Neighbor, int, error) {
	if err != nil {
		return nil, st.Computations, err
	}
	return serve.Neighbors(hits), st.Computations, nil
}

// Classify labels q with the class of its nearest corpus element. The
// corpus passed to NewServer must have been labelled.
func (s *Server) Classify(q string) (Prediction, int, error) {
	return s.ClassifyCtx(context.Background(), q)
}

// ClassifyCtx is Classify with cooperative cancellation (see KNearestCtx).
func (s *Server) ClassifyCtx(ctx context.Context, q string) (Prediction, int, error) {
	p, st, err := serve.Classify(ctx, s.eng, q)
	return p, st.Computations, err
}

// Add inserts value into the live corpus and returns its stable element ID
// (reported as Neighbor.Index from then on; the initial corpus keeps its
// positions as IDs). label is recorded when the corpus is labelled and
// ignored otherwise. The element is visible to every query issued after
// Add returns; a background compaction later folds it into its shard's
// base index without ever blocking queries.
func (s *Server) Add(value string, label int) (uint64, error) {
	return s.eng.Add(context.Background(), value, label)
}

// Delete removes the element with the given ID from the live corpus,
// reporting whether it was present. Deleted IDs are never reused and never
// resurface in query results.
func (s *Server) Delete(id uint64) (bool, error) { return s.eng.Delete(context.Background(), id) }

// SaveToStore publishes one consistent incremental snapshot of the live
// corpus — per shard: the base index, the uncompacted delta and the
// tombstones — into the configured blob store (ServerConfig.Store):
// per-shard objects are uploaded first — skipping shards unchanged since
// the last save — and a small versioned manifest last, so a crash at any
// instant leaves the previous snapshot fully loadable. LoadFromStore (or
// cedserve -load-snapshot) restores it without recomputing a single
// index-build distance.
func (s *Server) SaveToStore(ctx context.Context) error {
	_, err := s.eng.SaveToStore(ctx)
	return err
}

// LoadFromStore atomically replaces the live corpus with the newest
// loadable snapshot in the configured blob store and reports the restored
// live size: queries in flight finish against the old corpus, queries
// issued afterwards see the new one, and none block. Object integrity is
// verified against the manifest's SHA-256 digests; a torn newest manifest
// falls back to the previous one, and a manifest written by a newer binary
// is rejected outright. The snapshot's metric and index algorithm must
// match this server's.
func (s *Server) LoadFromStore(ctx context.Context) (int, error) { return s.eng.LoadFromStore(ctx) }

// WaitSnapshots blocks until every in-flight background snapshot
// (ServerConfig.SnapshotEvery) has finished — the shutdown drain.
func (s *Server) WaitSnapshots() { s.eng.WaitSnapshots() }

// Compact synchronously folds every shard's mutation overlay (delta
// entries and tombstones) into its base index. Background compaction runs
// on its own once a shard's overlay outgrows the configured threshold;
// Compact is for callers that want a minimal snapshot or a fully indexed
// corpus right now.
func (s *Server) Compact() { s.eng.Compact() }
