// Package serve implements the batch-serving subsystem behind cmd/cedserve:
// a query engine that holds a corpus and a metric-space search index in
// memory and answers distance, k-NN and classification requests — singly or
// in batches fanned out over a worker pool — while reporting the number of
// distance computations each request spent (the cost measure of the paper's
// Figures 3 and 4).
//
// The engine is deliberately HTTP-agnostic: http.go wraps it in JSON
// endpoints, and the public ced.Server facade re-exports it for embedding.
// The client endpoints (/knn, /radius, /classify, /add, /delete) are
// written once, over the Corpus interface, so a cluster coordinator
// (internal/remote) answers them through the same routes, the same front
// door (Gate: admission, cancellation counters, the error→status map) and
// the same classification rule as a single engine.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ced/internal/blob"
	"ced/internal/bulk"
	"ced/internal/metric"
	"ced/internal/pool"
	"ced/internal/search"
	"ced/internal/shard"
)

// Config selects and tunes the search index behind an Engine.
type Config struct {
	// Algorithm is one of shard.Kinds. Empty defaults to "laesa". The
	// bktree prunes on the integer values of the plain edit distance and
	// is only accepted with metric dE (see shard.StandardBuild); aesa
	// precomputes the full n×n distance matrix (quadratic preprocessing
	// and memory).
	Algorithm string
	// Pivots is the LAESA base-prototype count (ignored by the other
	// algorithms). <= 0 defaults to 16, clamped to the corpus size.
	Pivots int
	// Seed drives the randomised index construction (LAESA pivot
	// seeding). Fixed seed ⇒ identical index.
	Seed int64
	// Workers sizes the batch worker pool. <= 0 uses all CPUs.
	Workers int
	// BuildWorkers sizes the index-construction worker pool: the LAESA
	// pivot matrix, the AESA matrix and BK-tree levels fan their
	// distance evaluations over this many goroutines, which bounds the
	// engine's cold-start time. <= 0 uses all CPUs. The built index is
	// bit-identical for any value (fixed Seed ⇒ identical index).
	BuildWorkers int
	// CacheSize bounds the query→[]rune cache (second-chance eviction).
	// <= 0 disables it.
	CacheSize int
	// Shards partitions the corpus across this many independent indexes
	// (round-robin by stable element ID). Queries fan out across shards
	// and merge with a shared pruning bound; Add/Delete and the snapshot
	// endpoints mutate the live set. <= 0 means 1 — a single shard
	// answers exactly like the pre-sharding monolithic engine.
	Shards int
	// CompactThreshold is the per-shard delta-plus-tombstone size that
	// schedules a background compaction; <= 0 uses
	// shard.DefaultCompactThreshold.
	CompactThreshold int
	// Store attaches a blob store for durable incremental snapshots:
	// SaveToStore/LoadFromStore, the /snapshot endpoints and background
	// snapshot-on-threshold all run against it. nil disables them.
	Store blob.Store
	// SnapshotEvery starts a background store snapshot once this many
	// mutations have landed since the last one (single-flight, with a
	// failure cool-down). <= 0 disables auto-snapshots; ignored without a
	// Store.
	SnapshotEvery int
	// MaxInFlight bounds the number of concurrently executing query
	// requests (admission control): excess requests wait up to
	// MaxQueueWait for a slot and are then shed with 429 + Retry-After.
	// Mutations, snapshots and /healthz are exempt — health checks and
	// drains must succeed exactly when the server is saturated. <= 0
	// disables admission control.
	MaxInFlight int
	// MaxQueueWait is how long an over-admission query may wait for a
	// slot before being shed; <= 0 uses DefaultMaxQueueWait. Ignored
	// without MaxInFlight.
	MaxQueueWait time.Duration
	// RetryAfter is the Retry-After value (seconds) sent with a 429;
	// <= 0 uses DefaultRetryAfter. Ignored without MaxInFlight.
	RetryAfter int
}

// Pair is one query pair for the batch-distance APIs; ced.Pair aliases it.
type Pair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// StageRejections breaks the bounded candidate evaluations of a request (or
// of the server's lifetime, in Info) out by the ladder rung that rejected
// them — the staged bound ladder of the contextual kernel, cheapest rung
// first. Candidates rejected at "length" cost a couple of comparisons,
// "edit" a bit-parallel scan, "heuristic" the quadratic dC,h program, and
// "exact" an abandoned run of the banded exact dynamic program; candidates
// in none of the buckets were evaluated to completion. All zero for metrics
// that never reject.
type StageRejections struct {
	Length    int64 `json:"length"`
	Edit      int64 `json:"edit"`
	Heuristic int64 `json:"heuristic"`
	Exact     int64 `json:"exact"`
}

// stageRejections converts the searcher's per-stage counters to their wire
// form.
func stageRejections(c metric.StageCounts) StageRejections {
	return StageRejections{
		Length:    c[metric.StageLength],
		Edit:      c[metric.StageEdit],
		Heuristic: c[metric.StageHeuristic],
		Exact:     c[metric.StageExact],
	}
}

// Stats describes the work one request spent: the number of distance
// evaluations (the paper's cost measure, summed over a batch) and how many
// of them the bound ladder rejected early, by rung.
type Stats = search.Stats

// Neighbor is one k-NN answer element.
type Neighbor struct {
	// Index is the neighbour's position in the corpus.
	Index int `json:"index"`
	// Value is the corpus string itself.
	Value string `json:"value"`
	// Distance is the query-to-neighbour distance.
	Distance float64 `json:"distance"`
}

// Prediction is one nearest-neighbour classification answer.
type Prediction struct {
	// Label is the class label of the nearest corpus element.
	Label int `json:"label"`
	// Neighbor is that nearest element.
	Neighbor Neighbor `json:"neighbor"`
}

// Engine answers queries against a sharded, mutable corpus. All methods
// are safe for concurrent use: queries read atomic per-shard snapshots,
// mutations take short per-shard locks, snapshot loads swap the whole set
// behind an atomic pointer, and the caches are internally locked.
//
// The atomic fields below are under cedvet's atomicsnap analyzer
// (internal/analysis): they may be touched only through their atomic
// method set (Load/Store/Add/...), never field-accessed raw.
type Engine struct {
	m      metric.Metric
	set    atomic.Pointer[shard.Set]
	setCfg shard.Config // the template LoadFromStore restores under
	// mutateMu serialises mutations against LoadFromStore's set swap: an
	// Add applied to the old set after the swap would be acknowledged and
	// silently lost. Mutations share the lock (they already serialise per
	// shard inside the set); only a snapshot load takes it exclusively.
	// Queries stay lock-free — reading the outgoing set is harmless.
	mutateMu sync.RWMutex
	workers  int
	cache    *runeCache
	requests atomic.Uint64
	rejected [metric.NumStages]atomic.Int64 // lifetime ladder rejections, by rung

	// gate is the engine's front door: admission control (off unless
	// Config.MaxInFlight is set), the shed/cancelled/deadline-exceeded
	// counters and the error→status map.
	gate *Gate

	// Durable-snapshot plumbing (store.go): the blob store and incremental
	// saver fixed at startup, the mutation counter driving background
	// snapshot-on-threshold, the single-flight latch and failure cool-down,
	// and the atomically published last-snapshot status for /healthz.
	store         blob.Store
	saver         *shard.Saver
	snapshotEvery int
	snapshotRetry time.Duration
	mutations     atomic.Uint64
	snapSaving    atomic.Bool
	snapRetryAt   atomic.Int64 // UnixNano before which auto-saves stay muted
	saveWG        sync.WaitGroup
	snapStatus    atomic.Pointer[snapStatus]
	saveOK        atomic.Uint64
	saveFail      atomic.Uint64
	// snapMu orders saves against loads. SaveToStore holds it across its
	// set capture and the upload, LoadFromStore across the load, the swap
	// and Attach. A load is then never overtaken by saves that would
	// garbage-collect the objects it is reading, and the manifest it
	// attaches is always the newest one.
	snapMu sync.Mutex

	// ev is the session-threaded evaluation layer behind the batch
	// endpoints: each striped batch worker evaluates through a private
	// metric session (a reusable distance workspace for the contextual
	// kernels), checked out for the duration of a batch and returned warm
	// for the next request.
	ev *bulk.Evaluator
}

// New builds an engine over corpus with the given metric and index
// configuration. labels must be empty or exactly len(corpus) long; when
// present they enable Classify. The BK-tree index is only accepted with
// the plain edit distance dE.
func New(corpus []string, labels []int, m metric.Metric, cfg Config) (*Engine, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("serve: empty corpus")
	}
	if len(labels) != 0 && len(labels) != len(corpus) {
		return nil, fmt.Errorf("serve: %d corpus strings but %d labels", len(corpus), len(labels))
	}
	if m == nil {
		return nil, fmt.Errorf("serve: nil metric")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "laesa"
	}
	if cfg.Pivots <= 0 {
		cfg.Pivots = 16
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// With one shard (the default) and seed offset 0, the base index is
	// bit-identical to the pre-sharding monolithic engine's.
	build, err := shard.StandardBuild(cfg.Algorithm, m, cfg.Pivots, cfg.Seed, cfg.BuildWorkers)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	setCfg := shard.Config{
		Shards:           cfg.Shards,
		Metric:           m,
		Build:            build,
		Algorithm:        cfg.Algorithm,
		Workers:          workers,
		CompactThreshold: cfg.CompactThreshold,
	}
	set, err := shard.New(corpus, labels, setCfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	e := &Engine{
		m:             m,
		setCfg:        setCfg,
		workers:       workers,
		cache:         newRuneCache(cfg.CacheSize),
		gate:          NewGate(cfg.MaxInFlight, cfg.MaxQueueWait, cfg.RetryAfter),
		ev:            bulk.New(m),
		store:         cfg.Store,
		snapshotEvery: cfg.SnapshotEvery,
		snapshotRetry: DefaultSnapshotRetry,
	}
	if e.store != nil {
		e.saver = shard.NewSaver(e.store)
	}
	e.set.Store(set)
	return e, nil
}

// Info is the engine snapshot reported by /healthz.
type Info struct {
	Algorithm string `json:"algorithm"`
	Metric    string `json:"metric"`
	// CorpusSize is the live element count: base elements minus
	// tombstones plus uncompacted delta entries, across all shards.
	CorpusSize int    `json:"corpus_size"`
	Labelled   bool   `json:"labelled"`
	Workers    int    `json:"workers"`
	Requests   uint64 `json:"requests"`
	// Rejections accumulates the per-stage ladder rejections over every
	// search request the engine has served — the lifetime view of the
	// per-request counters in the query metadata.
	Rejections StageRejections `json:"rejections"`
	Cache      CacheStats      `json:"cache"`
	// Shards is the sharded-corpus view: partition count, per-shard
	// base/delta/tombstone sizes, compaction epochs and the lifetime
	// add/delete/compaction counters.
	Shards shard.Info `json:"shards"`
	// Snapshot is the durable-snapshot health block: whether a store is
	// attached, the last durable manifest's sequence/age/size, the most
	// recent failure and the auto-save counters.
	Snapshot SnapshotInfo `json:"snapshot"`
	// Overload is the robustness health block: admission-control state
	// (max in-flight, current occupancy, lifetime shed count) and the
	// lifetime counts of cancelled and deadline-exceeded queries.
	Overload OverloadInfo `json:"overload"`
}

// Info returns the current engine snapshot.
func (e *Engine) Info() Info {
	set := e.set.Load()
	si := set.Info()
	return Info{
		Algorithm:  e.setCfg.Algorithm,
		Metric:     e.m.Name(),
		CorpusSize: si.Size,
		Labelled:   set.Labelled(),
		Workers:    e.workers,
		Requests:   e.requests.Load(),
		Rejections: StageRejections{
			Length:    e.rejected[metric.StageLength].Load(),
			Edit:      e.rejected[metric.StageEdit].Load(),
			Heuristic: e.rejected[metric.StageHeuristic].Load(),
			Exact:     e.rejected[metric.StageExact].Load(),
		},
		Cache:    e.cache.Stats(),
		Shards:   si,
		Snapshot: e.snapshotInfo(),
		Overload: e.gate.Overload(),
	}
}

// Gate returns the engine's front door. The HTTP layer wraps the query
// endpoints in it; embedders running their own transport can do the same.
func (e *Engine) Gate() *Gate { return e.gate }

// Labelled reports whether classification queries are possible.
func (e *Engine) Labelled() bool { return e.set.Load().Labelled() }

// countRequest bumps the served-request counter (one per API call, batch or
// single).
func (e *Engine) countRequest() { e.requests.Add(1) }

// record folds one search query's per-stage counters into the lifetime
// totals.
func (e *Engine) record(c metric.StageCounts) {
	for s, n := range c {
		if n != 0 {
			e.rejected[s].Add(n)
		}
	}
}

// Distance computes the metric between a and b. The Stats report one
// distance computation and no rejections (a direct evaluation has no
// cutoff to reject against); present for API symmetry with the search
// queries.
func (e *Engine) Distance(a, b string) (float64, Stats) {
	e.countRequest()
	return e.m.Distance(e.cache.Get(a), e.cache.Get(b)), Stats{Computations: 1}
}

// BatchDistanceCtx computes the metric for every pair, fanned out over the
// worker pool with the same index-striding pattern as ced.DistanceMatrix.
// It returns one distance per pair, in order, and the total computation
// count (one per pair). The striped workers poll ctx between pairs (see
// bulk.FanCtx) and a cancelled batch returns ctx's error with no output —
// distances are all-or-nothing.
//
// Batch methods decode runes inline rather than through the rune cache:
// bulk payloads are dominated by one-off strings, which would serialise
// the workers on the cache mutex and evict the hot interactive-query
// entries the cache exists for.
//
// When the metric supports sessions (the contextual kernels do), each
// striped worker evaluates through a private session holding its own DP
// workspace, checked out of the bulk evaluation layer for the duration of
// the batch and returned warm afterwards: steady-state batch distances
// allocate nothing and no workspace is ever shared between live workers.
func (e *Engine) BatchDistanceCtx(ctx context.Context, pairs []Pair) ([]float64, Stats, error) {
	e.countRequest()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	out := make([]float64, len(pairs))
	err := e.ev.FanCtx(ctx, len(pairs), e.workers, func(s metric.Metric, i int) {
		out[i] = s.Distance([]rune(pairs[i].A), []rune(pairs[i].B))
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return out, Stats{Computations: len(pairs)}, nil
}

// Query answers req for q — the k nearest corpus elements or every element
// within a radius, closest first (ties by ID) — and reports the work the
// index spent: distance computations plus the per-stage ladder rejections
// among them. The shard scans poll ctx every few candidates and a
// cancelled query stops computing, returning ctx's error with the partial
// work counted in Stats; answers are bit-identical whenever ctx is not
// cancelled.
func (e *Engine) Query(ctx context.Context, q string, req search.Request) ([]shard.Hit, Stats, error) {
	e.countRequest()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	return e.query(ctx, e.cache.Get(q), req)
}

// KNearestCtx returns the k nearest corpus elements to q: Query with
// search.KNN(k, +Inf).
func (e *Engine) KNearestCtx(ctx context.Context, q string, k int) ([]shard.Hit, Stats, error) {
	return e.Query(ctx, q, search.KNN(k, math.Inf(1)))
}

// BatchKNearestCtx answers a k-NN query per input string over the worker
// pool (decoding inline, bypassing the cache — see BatchDistanceCtx). The
// stats are summed across queries; a cancelled batch returns ctx's error
// with the stats of the work spent before the stop.
func (e *Engine) BatchKNearestCtx(ctx context.Context, queries []string, k int) ([][]Neighbor, Stats, error) {
	e.countRequest()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	req := search.KNN(k, math.Inf(1))
	if err := req.Validate(); err != nil {
		return nil, Stats{}, badRequest(fmt.Errorf("serve: %w", err))
	}
	out := make([][]Neighbor, len(queries))
	stats := make([]Stats, len(queries))
	errs := make([]error, len(queries))
	e.fanOut(len(queries), func(i int) {
		var hits []shard.Hit
		hits, stats[i], errs[i] = e.query(ctx, []rune(queries[i]), req)
		out[i] = Neighbors(hits)
	})
	for _, err := range errs {
		if err != nil {
			return nil, sumStats(stats), err
		}
	}
	return out, sumStats(stats), nil
}

// query is the engine's one query path: it validates req, runs it on the
// current set and folds its ladder rejections into the lifetime totals.
func (e *Engine) query(ctx context.Context, q []rune, req search.Request) ([]shard.Hit, Stats, error) {
	if err := req.Validate(); err != nil {
		return nil, Stats{}, badRequest(fmt.Errorf("serve: %w", err))
	}
	hits, st, err := e.set.Load().Query(ctx, q, req)
	e.record(st.Rejections)
	if err != nil {
		return nil, st, err
	}
	return hits, st, nil
}

// Neighbors converts merged shard hits to the wire form: Index is the
// element's stable global ID (its original corpus position for elements
// present since startup; Add mints the next integer).
func Neighbors(hits []shard.Hit) []Neighbor {
	out := make([]Neighbor, len(hits))
	for i, h := range hits {
		out[i] = Neighbor{Index: int(h.ID), Value: h.Value, Distance: h.Distance}
	}
	return out
}

// Classify labels q with the class of its nearest live element in c — the
// paper's §4.4 decision rule, one query at a time — and reports the work
// spent. It fails with a 400 StatusError when c is unlabelled or empty. A
// degraded coordinator answer (see Degraded) still classifies when the
// shards that answered hold a live element, returning the *Degraded tag
// with the prediction; when they hold none there is nothing to label and
// the failure is the cluster's (502), not the caller's.
func Classify(ctx context.Context, c Corpus, q string) (Prediction, Stats, error) {
	return classify(c.Labelled(), func(req search.Request) ([]shard.Hit, Stats, error) {
		return c.Query(ctx, q, req)
	})
}

// BatchClassifyCtx classifies every query over the worker pool (decoding
// inline, bypassing the cache — see BatchDistanceCtx), summing the stats.
func (e *Engine) BatchClassifyCtx(ctx context.Context, queries []string) ([]Prediction, Stats, error) {
	e.countRequest()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if !e.Labelled() {
		return nil, Stats{}, errUnlabelled
	}
	out := make([]Prediction, len(queries))
	stats := make([]Stats, len(queries))
	errs := make([]error, len(queries))
	e.fanOut(len(queries), func(i int) {
		out[i], stats[i], errs[i] = classify(true, func(req search.Request) ([]shard.Hit, Stats, error) {
			return e.query(ctx, []rune(queries[i]), req)
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, sumStats(stats), err
		}
	}
	return out, sumStats(stats), nil
}

var (
	errUnlabelled  = badRequest(errors.New("serve: corpus is unlabelled; /classify needs a corpus file with \"string\\tlabel\" lines"))
	errEmptyCorpus = badRequest(errors.New("serve: empty corpus"))
)

// classify is the one classification rule: a labelled corpus, its 1-NN
// under query, that neighbour's label.
func classify(labelled bool, query func(search.Request) ([]shard.Hit, Stats, error)) (Prediction, Stats, error) {
	if !labelled {
		return Prediction{}, Stats{}, errUnlabelled
	}
	hits, st, err := query(search.KNN(1, math.Inf(1)))
	_, degraded := partial(err)
	switch {
	case err != nil && !degraded:
		return Prediction{}, st, err
	case len(hits) == 0 && degraded:
		// %v, not %w: the tag must not unwrap into a "partial answer"
		// with no label in it.
		return Prediction{}, st, &StatusError{Status: http.StatusBadGateway,
			Err: fmt.Errorf("serve: no shard that answered holds a live element (%v)", err)}
	case len(hits) == 0:
		return Prediction{}, st, errEmptyCorpus
	}
	return Prediction{Label: hits[0].Label, Neighbor: Neighbors(hits[:1])[0]}, st, err
}

// Add inserts value into the live corpus and returns its stable ID (served
// as Neighbor.Index from then on). label is recorded when the corpus is
// labelled and ignored otherwise. The element is visible to every query
// issued after Add returns; a background compaction folds it into its
// shard's base index once the shard's delta outgrows the threshold. The
// insert is local and brief, so ctx is not consulted.
func (e *Engine) Add(_ context.Context, value string, label int) (uint64, error) {
	e.countRequest()
	e.mutateMu.RLock()
	id := e.set.Load().Add(value, label)
	e.mutateMu.RUnlock()
	e.maybeSnapshot()
	return id, nil
}

// Delete removes the element with the given ID from the live corpus,
// reporting whether it was present. Deleted IDs are never reused and never
// resurface in query results. Like Add, it does not consult ctx.
func (e *Engine) Delete(_ context.Context, id uint64) (bool, error) {
	e.countRequest()
	e.mutateMu.RLock()
	deleted := e.set.Load().Delete(id)
	e.mutateMu.RUnlock()
	if deleted {
		e.maybeSnapshot()
	}
	return deleted, nil
}

// Size returns the live element count.
func (e *Engine) Size() int { return e.set.Load().Size() }

// Compact synchronously folds every shard's delta and tombstones into its
// base index (testing and pre-snapshot hook; background compaction runs on
// its own once deltas outgrow the threshold).
func (e *Engine) Compact() { e.set.Load().Compact() }

// fanOut runs fn(i) for i in [0, n) across the engine's worker pool.
func (e *Engine) fanOut(n int, fn func(i int)) {
	pool.Fan(n, e.workers, fn)
}

func sumStats(xs []Stats) Stats {
	var t Stats
	for _, x := range xs {
		t.Add(x)
	}
	return t
}
