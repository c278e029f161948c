// Command cedserve serves distance, k-NN and classification queries over a
// corpus through an HTTP JSON API — and, since the sharded-corpus refactor,
// accepts live mutations and restartless snapshots. It can also run as one
// node of a replicated cluster: see "Cluster modes" below.
//
// Usage:
//
//	cedserve [-addr :8080] [-corpus FILE] [-d dC,h] [-index laesa] [-pivots 16]
//	         [-workers 0] [-build-workers 0] [-cache 4096] [-seed 1] [-sample 0]
//	         [-shards 1] [-compact-threshold 256]
//	         [-store DIR] [-snapshot-every N] [-load-snapshot]
//	         [-max-inflight 0] [-queue-wait 100ms] [-retry-after 1]
//	cedserve -shard-server [-addr :9001] [-d dC,h] [-index laesa] [-pivots 16]
//	cedserve -coordinator -shards-at http://h1:9001,http://h2:9001
//	         [-corpus FILE | -sample N] [-cluster-shards 4] [-replicas 2]
//	         [-range-width 0] [-hedge-after 0] [-request-timeout 2s] [-retries 2]
//	         [-breaker-cooldown 250ms] [-allow-degraded]
//	         [-max-inflight 0] [-queue-wait 100ms] [-retry-after 1]
//
// The corpus file uses the dataset format (one string per line, optional
// trailing "\tlabel"); labels enable the /classify endpoints. Without
// -corpus, -sample N serves a generated N-word Spanish-like dictionary, so
// the server can be tried with no data at hand:
//
//	cedserve -sample 5000 -shards 4 -store /var/lib/ced &
//	curl localhost:8080/healthz
//	curl -d '{"a":"contextual","b":"normalised"}' localhost:8080/distance
//	curl -d '{"query":"contextal","k":3}' localhost:8080/knn
//	curl -d '{"value":"contextal"}' localhost:8080/add
//	curl -d '{"id":5000}' localhost:8080/delete
//	curl -XPOST localhost:8080/snapshot/save
//
// -shards N partitions the corpus across N independent indexes: queries
// fan out and merge with a shared pruning bound, and /add + /delete mutate
// the live set (deltas fold into the base indexes by background
// compaction, swapping epochs atomically — queries never block).
//
// -store DIR attaches a durable blob store — a local directory, created if
// missing, with crash-safe temp-file + fsync + rename writes — behind the
// /snapshot/save and /snapshot/load endpoints. /snapshot/save publishes an
// incremental manifest-addressed snapshot that re-uploads only the shards
// changed since the last save and commits by writing the manifest last, so
// a crash at any point leaves the previous snapshot fully loadable.
// -load-snapshot cold-starts from the newest manifest instead of building
// indexes, so a warm cold-start costs zero distance computations (a corpus
// source is then optional), and -snapshot-every N publishes a background
// snapshot after every N mutations (single-flight, with a failure
// cool-down). /healthz reports the last snapshot's sequence, age and error
// under "snapshot".
//
// # Cluster modes
//
// -shard-server turns the process into an empty shard host: it serves
// logical shard slots under /shard/{slot}/... and waits for a coordinator
// to seed them (corpus and -store flags are refused — content arrives over
// the wire, and a replica that lost it is reseeded from a healthy peer's
// dump). -index takes the same kinds as every mode, and bktree needs -d dE.
// -coordinator makes the process the cluster front door: it seeds the
// corpus across the shard servers listed in -shards-at (replica r of
// logical shard s lands on node (s+r) mod N), replicates every write R
// ways, fans queries over the shards with the cross-shard pruning bound,
// hedges slow replicas after -hedge-after (0 picks an adaptive latency
// percentile), and ejects/re-syncs/readmits failing replicas. The served
// answers are exactly the monolithic engine's — distribution never
// approximates (the differential suite under internal/remote/clustertest
// pins this).
//
// Endpoints: GET /healthz; POST /distance, /distance/batch, /knn,
// /knn/batch, /radius, /classify, /classify/batch, /add, /delete,
// /snapshot/save, /snapshot/load. Coordinator mode answers POST /knn,
// /radius, /classify, /add and /delete through the same routes as a
// single server — same bodies, same statuses — plus its own GET /healthz
// and POST /compact. Every query
// response reports the number of distance computations spent, the
// per-stage bound-ladder rejections among them and the server-side latency
// in milliseconds; /healthz reports the lifetime rejection totals plus
// per-shard delta/tombstone/epoch counters (monolithic) or per-replica
// health (coordinator). See README.md for the full wire format, the
// "Anatomy of a query" section for the ladder, "Mutating the corpus" for
// the delta/compaction model and "Running a cluster" for the distributed
// topology.
//
// # Operating under overload
//
// Every query accepts a Ced-Budget-Ms header carrying the caller's
// remaining deadline in milliseconds (clamped server-side to 60s); the
// budget propagates coordinator→shard on every hop, cancellation reaches
// into the scan loops, and an exhausted budget answers 504. A client that
// disconnects mid-query stops the computation and is counted as a 499.
// -max-inflight N admits at most N concurrently executing queries; excess
// waits up to -queue-wait for a slot and is then shed with 429 +
// Retry-After (health, mutation and snapshot endpoints are never gated).
// In coordinator mode, -breaker-cooldown tunes the per-replica circuit
// breaker's open window and -allow-degraded opts into partial answers
// tagged "degraded": true with the missing-shard list when an entire
// logical shard is down (the default is to fail such queries loudly).
//
// All modes serve through a hardened http.Server (header/read/write/idle
// timeouts) and shut down gracefully on SIGINT/SIGTERM, draining in-flight
// requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ced"
	"ced/internal/metric"
	"ced/internal/remote"
	"ced/internal/shard"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		corpus     = flag.String("corpus", "", "dataset file to serve (string [\\tlabel] per line)")
		sample     = flag.Int("sample", 0, "serve a generated Spanish-like dictionary of this size instead of -corpus")
		dist       = flag.String("d", "dC,h", "distance to serve (see ced -list)")
		index      = flag.String("index", "laesa", "search index: one of "+strings.Join(shard.Kinds, ", ")+" (bktree needs -d dE)")
		pivots     = flag.Int("pivots", 16, "LAESA pivot count")
		workers    = flag.Int("workers", 0, "batch worker pool size (0 = all CPUs)")
		buildWrk   = flag.Int("build-workers", 0, "index-construction worker pool size (0 = all CPUs); the built index is identical for any value")
		cache      = flag.Int("cache", 4096, "query rune-cache entries (0 or negative disables)")
		seed       = flag.Int64("seed", 1, "seed for randomised index construction")
		shards     = flag.Int("shards", 1, "partition the corpus across this many independent indexes")
		compactThr = flag.Int("compact-threshold", 0, "per-shard delta+tombstone size that triggers background compaction (0 = default 256)")
		loadSnap   = flag.Bool("load-snapshot", false, "restore the newest -store snapshot at startup instead of building indexes (corpus flags become optional)")
		store      = flag.String("store", "", "durable snapshot store: a local directory, created if missing; /snapshot/save uploads only changed shards")
		snapEvery  = flag.Int("snapshot-every", 0, "publish a background store snapshot after this many mutations (0 = manual; needs -store)")

		maxInFlight = flag.Int("max-inflight", 0, "admission control: maximum concurrently executing queries; excess sheds with 429 after -queue-wait (0 disables)")
		queueWait   = flag.Duration("queue-wait", 0, "admission control: how long an over-admission query waits for a slot before shedding (0 = 100ms default)")
		retryAfter  = flag.Int("retry-after", 0, "Retry-After header (seconds) sent with shed 429 responses (0 = 1s default)")

		shardServer   = flag.Bool("shard-server", false, "host logical shard slots for a cluster coordinator (a coordinator seeds them over HTTP; corpus and -store flags are refused)")
		coordinator   = flag.Bool("coordinator", false, "serve as the cluster coordinator over the shard servers in -shards-at")
		shardsAt      = flag.String("shards-at", "", "comma-separated shard-server base URLs, e.g. http://h1:9001,http://h2:9001 (coordinator mode)")
		clusterShards = flag.Int("cluster-shards", 0, "logical shard count (coordinator mode; 0 = one per node)")
		replicas      = flag.Int("replicas", 1, "replication factor R: replica r of shard s lives on node (s+r) mod nodes")
		rangeWidth    = flag.Int("range-width", 0, "ID-range placement block (0 = ceil(corpus/shards) at seed time)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "fixed delay before racing a second replica (0 = adaptive latency percentile, negative disables hedging)")
		reqTimeout    = flag.Duration("request-timeout", 2*time.Second, "per-attempt timeout for coordinator-to-shard requests")
		retries       = flag.Int("retries", 2, "transient-failure retries per coordinator-to-shard request (negative disables)")
		breakerCool   = flag.Duration("breaker-cooldown", 0, "circuit-breaker open window per ejected replica (0 = 250ms default, negative disables)")
		allowDegraded = flag.Bool("allow-degraded", false, "serve tagged partial answers when every replica of a shard is down instead of failing the query")
	)
	flag.Parse()

	var (
		handler http.Handler
		drain   func()
		err     error
	)
	switch {
	case *shardServer && *coordinator:
		err = fmt.Errorf("-shard-server and -coordinator are mutually exclusive")
	case *shardServer:
		handler, err = buildShardServer(shardServerOpts{
			dist: *dist, index: *index, pivots: *pivots, seed: *seed,
			buildWorkers: *buildWrk, compactThreshold: *compactThr,
			corpusPath: *corpus, sample: *sample, store: *store,
		}, *addr)
	case *coordinator:
		handler, err = buildCoordinator(coordinatorOpts{
			shardsAt: *shardsAt, corpusPath: *corpus, sample: *sample,
			dist: *dist, seed: *seed, clusterShards: *clusterShards,
			replicas: *replicas, rangeWidth: *rangeWidth,
			hedgeAfter: *hedgeAfter, timeout: *reqTimeout, retries: *retries,
			breakerCooldown: *breakerCool, allowDegraded: *allowDegraded,
			maxInFlight: *maxInFlight, queueWait: *queueWait, retryAfter: *retryAfter,
		}, *addr)
	default:
		var srv *ced.Server
		var info ced.ServerInfo
		srv, info, err = build(buildOpts{
			corpusPath: *corpus, sample: *sample, dist: *dist, index: *index,
			pivots: *pivots, workers: *workers, buildWorkers: *buildWrk,
			cache: *cache, seed: *seed, shards: *shards, compactThreshold: *compactThr,
			loadSnapshot: *loadSnap, store: *store, snapshotEvery: *snapEvery,
			maxInFlight: *maxInFlight, queueWait: *queueWait, retryAfter: *retryAfter,
		})
		if err == nil {
			handler = srv.Handler()
			drain = srv.WaitSnapshots // finish in-flight background snapshots before exiting
			log.Printf("cedserve: serving %d strings (%s index ×%d shards, %s metric, labelled=%v) on %s",
				info.CorpusSize, info.Algorithm, info.Shards.Shards, info.Metric, info.Labelled, *addr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cedserve:", err)
		os.Exit(1)
	}
	if err := runServer(*addr, handler, drain); err != nil {
		log.Fatal("cedserve: ", err)
	}
}

// runServer serves handler on addr with conservative connection timeouts
// (a bare http.ListenAndServe holds header-less or dribbling connections
// forever) and drains in-flight requests on SIGINT/SIGTERM before
// returning; drain (optional) then runs before the clean return — the
// engine hooks its background-snapshot wait there so a TERM never cuts a
// store upload in half. A clean shutdown returns nil.
func runServer(addr string, handler http.Handler, drain func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately instead of draining
		log.Print("cedserve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if drain != nil {
			drain()
		}
		return nil
	}
}

// shardServerOpts carries the -shard-server flags; split from main so tests
// can drive the mode without a process boundary.
type shardServerOpts struct {
	dist             string
	index            string
	pivots           int
	seed             int64
	buildWorkers     int
	compactThreshold int
	corpusPath       string
	sample           int
	store            string
}

// buildShardServer assembles the shard-host handler. Corpus flags are
// refused: slot content arrives from the coordinator over HTTP, and a
// locally loaded corpus would silently disagree with the cluster placement.
// -store is refused too: a shard host keeps nothing on disk, and the
// coordinator re-syncs a restarted host from a healthy peer's dump.
func buildShardServer(o shardServerOpts, addr string) (http.Handler, error) {
	if o.corpusPath != "" || o.sample > 0 {
		return nil, fmt.Errorf("-shard-server takes no corpus; the coordinator seeds shard content over HTTP")
	}
	if o.store != "" {
		return nil, fmt.Errorf("-shard-server takes no -store; the coordinator re-syncs a replica from a healthy peer's dump")
	}
	m, err := metric.ByName(o.dist)
	if err != nil {
		return nil, err
	}
	srv, err := remote.NewShardServer(remote.ServerConfig{
		Metric:           m,
		Algorithm:        o.index,
		Pivots:           o.pivots,
		Seed:             o.seed,
		BuildWorkers:     o.buildWorkers,
		CompactThreshold: o.compactThreshold,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("cedserve: shard server (%s index, %s metric) awaiting seeds on %s", o.index, m.Name(), addr)
	return srv.Handler(), nil
}

// coordinatorOpts carries the -coordinator flags.
type coordinatorOpts struct {
	shardsAt      string
	corpusPath    string
	sample        int
	dist          string
	seed          int64
	clusterShards int
	replicas      int
	rangeWidth    int
	hedgeAfter    time.Duration
	timeout       time.Duration
	retries       int

	breakerCooldown time.Duration
	allowDegraded   bool
	maxInFlight     int
	queueWait       time.Duration
	retryAfter      int
}

// buildCoordinator loads the corpus, seeds it across the shard servers and
// returns the coordinator's HTTP handler.
func buildCoordinator(o coordinatorOpts, addr string) (http.Handler, error) {
	var nodes []string
	for _, u := range strings.Split(o.shardsAt, ",") {
		if u = strings.TrimSpace(u); u != "" {
			nodes = append(nodes, u)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-coordinator needs -shards-at URL[,URL...]")
	}
	var data *ced.Dataset
	var err error
	switch {
	case o.corpusPath != "" && o.sample > 0:
		return nil, fmt.Errorf("-corpus and -sample are mutually exclusive")
	case o.corpusPath != "":
		if data, err = ced.ReadDatasetFile(o.corpusPath); err != nil {
			return nil, err
		}
	case o.sample > 0:
		data = ced.GenerateSpanish(o.sample, o.seed)
	default:
		return nil, fmt.Errorf("-coordinator needs -corpus FILE or -sample N to seed the cluster")
	}
	m, err := metric.ByName(o.dist)
	if err != nil {
		return nil, err
	}
	coord, err := remote.NewCoordinator(remote.Config{
		Nodes:           nodes,
		Shards:          o.clusterShards,
		Replicas:        o.replicas,
		RangeWidth:      o.rangeWidth,
		MetricName:      m.Name(),
		Timeout:         o.timeout,
		Retries:         o.retries,
		HedgeAfter:      o.hedgeAfter,
		BreakerCooldown: o.breakerCooldown,
		AllowDegraded:   o.allowDegraded,
		MaxInFlight:     o.maxInFlight,
		MaxQueueWait:    o.queueWait,
		RetryAfter:      o.retryAfter,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := coord.Seed(ctx, data.Strings, data.Labels); err != nil {
		coord.Close()
		return nil, fmt.Errorf("seeding cluster: %w", err)
	}
	log.Printf("cedserve: coordinating %d strings over %d nodes (%d shards ×%d replicas, %s metric, labelled=%v) on %s",
		len(data.Strings), len(nodes), coord.Shards(), coord.Replicas(), m.Name(), coord.Labelled(), addr)
	return remote.NewCoordinatorHandler(coord), nil
}

// buildOpts carries the flag values into build; split from main so the
// end-to-end tests can drive the full stack without a process boundary.
type buildOpts struct {
	corpusPath       string
	sample           int
	dist             string
	index            string
	pivots           int
	workers          int
	buildWorkers     int
	cache            int
	seed             int64
	shards           int
	compactThreshold int
	loadSnapshot     bool
	store            string
	snapshotEvery    int
	maxInFlight      int
	queueWait        time.Duration
	retryAfter       int
}

// build loads or generates the corpus (or restores a snapshot) and
// constructs the server.
func build(o buildOpts) (*ced.Server, ced.ServerInfo, error) {
	var (
		data *ced.Dataset
		err  error
	)
	switch {
	case o.corpusPath != "" && o.sample > 0:
		return nil, ced.ServerInfo{}, fmt.Errorf("-corpus and -sample are mutually exclusive")
	case o.loadSnapshot && (o.corpusPath != "" || o.sample > 0):
		// The snapshot replaces the corpus wholesale; building an index
		// from a corpus first would spend the full preprocessing cost
		// only to throw the result away.
		return nil, ced.ServerInfo{}, fmt.Errorf("-load-snapshot replaces the corpus; drop -corpus/-sample")
	case o.corpusPath != "":
		data, err = ced.ReadDatasetFile(o.corpusPath)
		if err != nil {
			return nil, ced.ServerInfo{}, err
		}
	case o.sample > 0:
		data = ced.GenerateSpanish(o.sample, o.seed)
	case o.loadSnapshot:
		// The snapshot replaces the corpus entirely; a placeholder corpus
		// is built below and immediately swapped out. Keep it minimal.
		data = &ced.Dataset{Strings: []string{""}}
	default:
		return nil, ced.ServerInfo{}, fmt.Errorf("need -corpus FILE, -sample N or -load-snapshot")
	}
	m, err := ced.ByName(o.dist)
	if err != nil {
		return nil, ced.ServerInfo{}, err
	}
	if o.cache <= 0 {
		o.cache = -1 // flag semantics: 0 disables; ServerConfig treats 0 as "default"
	}
	if o.loadSnapshot && o.store == "" {
		return nil, ced.ServerInfo{}, fmt.Errorf("-load-snapshot needs -store DIR")
	}
	if o.snapshotEvery > 0 && o.store == "" {
		return nil, ced.ServerInfo{}, fmt.Errorf("-snapshot-every needs -store DIR")
	}
	srv, err := ced.NewServer(data, ced.ServerConfig{
		Algorithm:        o.index,
		Metric:           m,
		Pivots:           o.pivots,
		Seed:             o.seed,
		Workers:          o.workers,
		BuildWorkers:     o.buildWorkers,
		CacheSize:        o.cache,
		Shards:           o.shards,
		CompactThreshold: o.compactThreshold,
		Store:            o.store,
		SnapshotEvery:    o.snapshotEvery,
		MaxInFlight:      o.maxInFlight,
		MaxQueueWaitMS:   int(o.queueWait / time.Millisecond),
		RetryAfter:       o.retryAfter,
	})
	if err != nil {
		return nil, ced.ServerInfo{}, err
	}
	if o.loadSnapshot {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if _, err := srv.LoadFromStore(ctx); err != nil {
			return nil, ced.ServerInfo{}, fmt.Errorf("loading store snapshot: %w", err)
		}
	}
	return srv, srv.Info(), nil
}
