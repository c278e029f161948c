package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/remote"
	"ced/internal/serve"
)

// Workload shapes. The reasons for each choice are in NOTES.md.
const (
	// datasetSeed fixes the corpora, as the paper's dictionary and digit
	// sets are fixed; --seed varies everything sent to them.
	datasetSeed  = 1
	dictWords    = 2000 // §4.3 dictionary size
	clusterWords = 20000
	queryPool    = 8192 // > the 4,096-entry rune LRU, so it both hits and evicts
	// Queries are drawn from the pool with P(rank k) ∝ (zipfV+k)^-zipfS.
	// The offset keeps the ten most popular queries near 4% of reads (41%
	// at offset 1), so no handful of words decides a run's cost.
	zipfS       = 1.1
	zipfV       = 64
	knnK        = 3
	spellRadius = 2
	digitsTrain = 600
	// digitsTest is the query pool, by 64 writers disjoint from training.
	digitsTest  = 512
	digitsEnrol = 200 // contours the enrol/retract pairs cycle through
	// digitsEnrolEvery is how many batches pass between enrol/retract
	// pairs in the timed phase.
	digitsEnrolEvery = 5
	digitsBatch      = 4
	digitsWarm       = 16 // batches, no writes: the deterministic fingerprint window
	digitsGrid       = 32
	// dictCompact is low enough that each of dict's 4 shards compacts
	// several times per run.
	dictCompact = 16
)

// workload is one traffic mix: how to generate its inputs from a seed and
// how to host the program for it.
type workload struct {
	name string
	// setups is how many times a run sets the program up; setup_s is the
	// median.
	setups int
	// warm is the length of the warm-up window: the first ops of the
	// stream, sent before the timed phase. Their summed computations are
	// the run's determinism fingerprint.
	warm int
	// rate sizes the pregenerated stream: warm + seconds×rate ops.
	rate int
	// sampleEvery is the oracle's read sample: 1 in sampleEvery reads,
	// chosen by a seeded hash of the op index. 0 selects digits' rule (a
	// seeded subset of the distinct queries, every answer to them).
	sampleEvery uint64
	// deterministic workloads (one shard, no writes in the window) must
	// report the same fingerprint traced and untraced.
	deterministic bool
	dist          string
	gen           func(seed int64, n int) *inputs
	start         func(in *inputs, tr *tracer) (*system, error)
}

// inputs is everything a run sends: the corpus handed to the program and
// the op stream, warm-up window first.
type inputs struct {
	seed   int64
	corpus []string
	labels []int
	ops    []op
}

var workloads = []*workload{
	{name: "dict", setups: 9, warm: 400, rate: 600, sampleEvery: 24, dist: "dC", gen: genDict, start: startDict},
	{name: "digits", setups: 3, warm: digitsWarm, rate: 200, deterministic: true, dist: "dC", gen: genDigits, start: startDigits},
	{name: "cluster-spell", setups: 9, warm: 400, rate: 1500, sampleEvery: 48, dist: "dE", gen: genSpell, start: startSpell},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return b
}

func knnOp(q string) op {
	return op{kind: opKNN, queries: []string{q}, body: mustJSON(struct {
		Query string `json:"query"`
		K     int    `json:"k"`
	}{q, knnK})}
}

func radiusOp(q string) op {
	return op{kind: opRadius, queries: []string{q}, body: mustJSON(struct {
		Query  string  `json:"query"`
		Radius float64 `json:"radius"`
	}{q, spellRadius})}
}

func addOp(v string, label *int, id uint64) op {
	o := op{kind: opAdd, value: v, id: id, body: mustJSON(struct {
		Value string `json:"value"`
		Label *int   `json:"label,omitempty"`
	}{v, label})}
	if label != nil {
		o.label = *label
	}
	return o
}

func deleteOp(id uint64) op {
	return op{kind: opDelete, id: id, body: mustJSON(struct {
		ID uint64 `json:"id"`
	}{id})}
}

// mixedStream generates n ops: about 10% adds of fresh words, 10%
// deletes of live IDs and 80% reads of 2-edit-perturbed corpus words drawn
// Zipf-style from a pool. wordsFn(n) returns the first n words of the
// fixed dataset: the corpus, then the words the adds insert. The
// generator tracks the live set itself and predicts the IDs the program
// will mint (sequential from the corpus size: one connection, one
// writer).
func mixedStream(seed int64, n, corpusN int, read func(string) op, wordsFn func(int) []string) (corpus []string, ops []op) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]opKind, n)
	adds := 0
	for i := range kinds {
		switch r := rng.Float64(); {
		case r < 0.10:
			kinds[i] = opAdd
			adds++
		case r < 0.20:
			kinds[i] = opDelete
		default:
			kinds[i] = opKNN // placeholder for "read"
		}
	}
	words := wordsFn(corpusN + adds)
	corpus, fresh := words[:corpusN], words[corpusN:]
	pool := dataset.PerturbQueries(&dataset.Dataset{Strings: corpus}, queryPool, 2, seed).Strings
	perm := rng.Perm(len(pool))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(pool)-1))

	live := make([]uint64, corpusN)
	pos := make(map[uint64]int, corpusN+adds)
	for i := range live {
		live[i] = uint64(i)
		pos[uint64(i)] = i
	}
	next := uint64(corpusN)
	ops = make([]op, 0, n)
	for _, k := range kinds {
		switch {
		case k == opAdd:
			ops = append(ops, addOp(fresh[0], nil, next))
			fresh = fresh[1:]
			pos[next] = len(live)
			live = append(live, next)
			next++
		case k == opDelete && len(live) > 1:
			j := rng.Intn(len(live))
			id := live[j]
			last := live[len(live)-1]
			live[j], pos[last] = last, j
			live = live[:len(live)-1]
			delete(pos, id)
			ops = append(ops, deleteOp(id))
		default:
			ops = append(ops, read(pool[perm[zipf.Uint64()]]))
		}
	}
	return corpus, ops
}

func spanishWords(n int) []string { return dataset.Spanish(n, datasetSeed).Strings }

func genDict(seed int64, n int) *inputs {
	corpus, ops := mixedStream(seed, n, dictWords, knnOp, spanishWords)
	return &inputs{seed: seed, corpus: corpus, ops: ops}
}

func genSpell(seed int64, n int) *inputs {
	corpus, ops := mixedStream(seed, n, clusterWords, radiusOp, spanishWords)
	return &inputs{seed: seed, corpus: corpus, ops: ops}
}

// genDigits generates n ops: classification batches of 4 test digits
// (from writers disjoint from the training writers) and, after the
// warm-up window, an enrol/retract pair (add a labelled contour, delete
// it) after every digitsEnrolEvery batches. No read ever sees an enrolled
// contour.
func genDigits(seed int64, n int) *inputs {
	train := dataset.Digits(dataset.DigitsConfig{Count: digitsTrain, Grid: digitsGrid}, datasetSeed)
	test := dataset.Digits(dataset.DigitsConfig{Count: digitsTest, Grid: digitsGrid, Writers: 64, FirstWriter: 100}, seed)
	enrol := dataset.Digits(dataset.DigitsConfig{Count: digitsEnrol, Grid: digitsGrid, Writers: 4, FirstWriter: 200}, seed)
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, corpus: train.Strings, labels: train.Labels, ops: make([]op, 0, n)}
	next := uint64(digitsTrain)
	for batches := 0; len(in.ops) < n; batches++ {
		qs := make([]string, digitsBatch)
		for j := range qs {
			qs[j] = test.Strings[rng.Intn(len(test.Strings))]
		}
		in.ops = append(in.ops, op{kind: opClassify, queries: qs, body: mustJSON(struct {
			Queries []string `json:"queries"`
		}{qs})})
		if len(in.ops) > digitsWarm && (batches+1)%digitsEnrolEvery == 0 {
			j := int(next-digitsTrain) % len(enrol.Strings)
			label := enrol.Labels[j]
			in.ops = append(in.ops, addOp(enrol.Strings[j], &label, next), deleteOp(next))
			next++
		}
	}
	return in
}

// system is one running instance of the program on loopback listeners.
type system struct {
	url string
	// build is the time spent inside the program's constructors (serve.New,
	// or the coordinator's Seed), the base of bulk.build_parallel_eff.
	build   time.Duration
	health  func(ctx context.Context, c *client) (healthSample, error)
	servers []*loopback
	closers []func()
}

// healthSample is what /healthz exposes that the per-layer metrics use.
type healthSample struct {
	cacheHits, cacheMisses uint64
	compactions            uint64
	pending                []int // delta + tombstones per shard
	hedged, retried        uint64
}

// close stops the coordinator side first, so no client connection is
// left for the servers' graceful shutdown to wait out, then the servers.
func (s *system) close() error {
	for _, f := range s.closers {
		f()
	}
	var errs []error
	for _, lb := range s.servers {
		errs = append(errs, lb.close())
	}
	return errors.Join(errs...)
}

// loopback serves one handler on 127.0.0.1 through a hardened server.
type loopback struct {
	srv  *http.Server
	url  string
	done chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	lb := &loopback{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       60 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close shuts the server down gracefully and waits for Serve to return.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// metricFor resolves the workload's distance, wrapped in the forwarding
// metric when traced.
func metricFor(name string, tr *tracer) (metric.Metric, error) {
	m, err := metric.ByName(name)
	if err != nil || tr == nil {
		return m, err
	}
	return tr.wrap(m)
}

// startEngine hosts one serving engine behind serve.NewHandler.
func startEngine(in *inputs, dist string, cfg serve.Config, tr *tracer) (*system, error) {
	m, err := metricFor(dist, tr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := serve.New(in.corpus, in.labels, m, cfg)
	if err != nil {
		return nil, err
	}
	sys := &system{build: time.Since(start), health: engineHealth}
	lb, err := serveLoopback(tr.handler(layerEdge, serve.NewHandler(e)))
	if err != nil {
		return nil, err
	}
	sys.url = lb.url
	sys.servers = append(sys.servers, lb)
	return sys, nil
}

func engineHealth(ctx context.Context, c *client) (healthSample, error) {
	var h serveHealth
	if err := c.get(ctx, "/healthz", &h); err != nil {
		return healthSample{}, err
	}
	s := healthSample{
		cacheHits:   h.Info.Cache.Hits,
		cacheMisses: h.Info.Cache.Misses,
		compactions: h.Info.Shards.Compactions,
	}
	for _, d := range h.Info.Shards.Detail {
		s.pending = append(s.pending, d.Delta+d.Tombstones)
	}
	return s, nil
}

func startDict(in *inputs, tr *tracer) (*system, error) {
	return startEngine(in, "dC", serve.Config{
		Algorithm: "laesa", Pivots: 16, Seed: datasetSeed, Shards: 4,
		CacheSize: 4096, CompactThreshold: dictCompact,
	}, tr)
}

func startDigits(in *inputs, tr *tracer) (*system, error) {
	return startEngine(in, "dC", serve.Config{
		Algorithm: "laesa", Pivots: 16, Seed: datasetSeed, Shards: 1, CacheSize: 4096,
	}, tr)
}

// startSpell hosts the README topology: 2 shard servers, a coordinator
// over 4 logical shards with R=2 and default hedging and retries.
func startSpell(in *inputs, tr *tracer) (*system, error) {
	m, err := metricFor("dE", tr)
	if err != nil {
		return nil, err
	}
	return startCluster(in.corpus, m, "bktree", datasetSeed, tr)
}

// startCluster hosts 2 shard servers and a coordinator serving corpus
// under m; a non-nil tracer records their spans and shard calls.
func startCluster(corpus []string, m metric.Metric, algorithm string, seed int64, tr *tracer) (*system, error) {
	sys := &system{health: clusterHealthOf}
	fail := func(err error) (*system, error) {
		_ = sys.close() // the start error is the one worth reporting
		return nil, err
	}
	var nodes []string
	for i := 0; i < 2; i++ {
		ss, err := remote.NewShardServer(remote.ServerConfig{Metric: m, Algorithm: algorithm, Pivots: 16, Seed: seed})
		if err != nil {
			return fail(err)
		}
		lb, err := serveLoopback(tr.handler(layerShardServer, ss.Handler()))
		if err != nil {
			return fail(err)
		}
		sys.servers = append(sys.servers, lb)
		nodes = append(nodes, lb.url)
	}
	cfg := remote.Config{Nodes: nodes, Shards: 4, Replicas: 2, MetricName: m.Name()}
	if tr != nil {
		cfg.HTTPClient = &http.Client{Transport: tr.shardCalls(http.DefaultTransport)}
	}
	start := time.Now()
	coord, err := remote.NewCoordinator(cfg)
	if err != nil {
		return fail(err)
	}
	sys.closers = append(sys.closers, coord.Close, func() {
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := coord.Seed(ctx, corpus, nil); err != nil {
		return fail(err)
	}
	sys.build = time.Since(start)
	lb, err := serveLoopback(tr.handler(layerEdge, remote.NewCoordinatorHandler(coord)))
	if err != nil {
		return fail(err)
	}
	sys.servers = append(sys.servers, lb)
	sys.url = lb.url
	return sys, nil
}

func clusterHealthOf(ctx context.Context, c *client) (healthSample, error) {
	var h clusterHealth
	if err := c.get(ctx, "/healthz", &h); err != nil {
		return healthSample{}, err
	}
	return healthSample{hedged: h.Cluster.Hedged, retried: h.Cluster.Retried}, nil
}
