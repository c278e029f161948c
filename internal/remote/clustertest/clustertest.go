// Package clustertest boots a full cedserve cluster in-process for the
// differential, fault-injection and stress suites: K shard servers on
// loopback httptest listeners — each wrapped in a fault-injection layer
// that can return 5xx, hang past the client deadline, cut the connection
// mid-stream, slow down, or drop dead — plus a coordinator wired to all of
// them. It also carries the exhaustive-scan Oracle the suites pin cluster
// answers against.
package clustertest

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ced/internal/metric"
	"ced/internal/remote"
)

// FaultMode selects what a node's fault-injection layer does to every
// request it sees.
type FaultMode int32

const (
	// FaultNone serves normally.
	FaultNone FaultMode = iota
	// Fault500 answers every request with HTTP 500.
	Fault500
	// FaultHang holds every request open until the client gives up — the
	// slow-replica failure the hedging path exists for.
	FaultHang
	// FaultCut writes a truncated JSON body and aborts the connection —
	// a node dying mid-stream.
	FaultCut
	// FaultDown closes the connection before writing anything — a dead
	// node, as seen by a client whose TCP connection was accepted by a
	// listener whose process is gone.
	FaultDown
	// FaultSlow delays every request by the node's SetSlow duration, then
	// serves normally — a struggling-but-correct replica for hedging
	// latency measurements.
	FaultSlow
)

// Node is one shard server under test: the engine, its HTTP listener and
// the fault-injection state.
type Node struct {
	Shard *remote.ShardServer
	Srv   *httptest.Server

	cfg     remote.ServerConfig
	handler atomic.Pointer[http.Handler] // swapped by Restart
	mode    atomic.Int32
	slowNS  atomic.Int64
	faulted atomic.Int64 // requests the fault layer interfered with

	// served counts the requests that actually reached the shard handler,
	// keyed by operation (the request path's last segment: "knn", "seed",
	// ...). A request the fault layer swallowed — including a FaultSlow hold
	// whose client cancelled mid-sleep — is never counted, which is exactly
	// what the hedge-cancellation regression test needs to observe.
	servedMu sync.Mutex
	served   map[string]int64
}

// Served reports how many requests for the given operation reached the
// shard handler.
func (n *Node) Served(op string) int64 {
	n.servedMu.Lock()
	defer n.servedMu.Unlock()
	return n.served[op]
}

// noteServed records a request that is about to be handled for real.
func (n *Node) noteServed(path string) {
	op := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		op = path[i+1:]
	}
	n.servedMu.Lock()
	if n.served == nil {
		n.served = make(map[string]int64)
	}
	n.served[op]++
	n.servedMu.Unlock()
}

// Restart simulates a crash-restart: the node keeps its address but every
// seeded slot is gone, exactly like a shard-server process that died and
// came back empty. Recovery must come from the coordinator's probe
// re-sync path — the restarted host answers probes with 404 "slot not
// seeded" until a healthy peer's dump is reseeded into it.
func (n *Node) Restart(t testing.TB) {
	t.Helper()
	ss, err := remote.NewShardServer(n.cfg)
	if err != nil {
		t.Fatalf("clustertest: restarting node: %v", err)
	}
	n.Shard = ss
	h := ss.Handler()
	n.handler.Store(&h)
}

// SetFault switches the node's fault mode (atomic; takes effect on the
// next request).
func (n *Node) SetFault(m FaultMode) { n.mode.Store(int32(m)) }

// SetSlow switches the node to FaultSlow with the given added latency.
func (n *Node) SetSlow(d time.Duration) {
	n.slowNS.Store(int64(d))
	n.mode.Store(int32(FaultSlow))
}

// Faulted reports how many requests the fault layer interfered with.
func (n *Node) Faulted() int64 { return n.faulted.Load() }

// inject wraps the node's current shard handler (an atomic pointer, so
// Restart can swap it under live traffic) in the fault layer.
func (n *Node) inject() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next := *n.handler.Load()
		switch FaultMode(n.mode.Load()) {
		case Fault500:
			n.faulted.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"injected fault"}`))
		case FaultHang:
			n.faulted.Add(1)
			// Hold the request open until the client disconnects (its
			// per-attempt timeout), then return without writing. The body
			// must be drained first: the server only notices a disconnect
			// (and cancels r.Context()) once the request is consumed, and
			// an undetected hang would also wedge the listener's Close.
			_, _ = io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
		case FaultCut:
			n.faulted.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"hits":[{"id":`))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		case FaultDown:
			n.faulted.Add(1)
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					_ = conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		case FaultSlow:
			n.faulted.Add(1)
			// Buffer the body before the wait, for the reason FaultHang
			// drains it: otherwise a caller that gives up mid-sleep goes
			// unnoticed and holds the request (and the listener's Close)
			// for the whole delay. The shard handler reads the copy.
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(time.Duration(n.slowNS.Load())):
			case <-r.Context().Done():
				// The caller gave up mid-sleep (hedge loser cancelled, or
				// deadline): the shard handler never runs, nothing is served.
				return
			}
			n.noteServed(r.URL.Path)
			next.ServeHTTP(w, r)
		default:
			n.noteServed(r.URL.Path)
			next.ServeHTTP(w, r)
		}
	})
}

// ReplicaClient returns a direct no-retry client for one slot of this node
// — the suites use it to audit per-replica content underneath the
// coordinator.
func (n *Node) ReplicaClient(slot int) *remote.Client {
	return remote.NewClient(n.Srv.URL, slot, remote.ClientConfig{Retries: -1})
}

// Config sizes a test cluster. Zero values get test-friendly defaults:
// 2 nodes, one shard per node, R=1, metric dC, a linear index (no build
// cost), a 1s per-attempt timeout, no client retries (the coordinator's
// replica failover is the layer under test) and no background probe loop
// (tests drive Coordinator.Probe explicitly, keeping readmission timing
// deterministic).
type Config struct {
	Nodes         int
	Shards        int
	Replicas      int
	RangeWidth    int
	MetricName    string
	Algorithm     string
	Pivots        int
	Seed          int64
	Timeout       time.Duration
	Retries       int // 0 = none; > 0 enables client retries
	HedgeAfter    time.Duration
	FailThreshold int
	ProbeInterval time.Duration // 0 = disabled; > 0 enables the loop
	// BreakerCooldown is the circuit-breaker open window; 0 = disabled
	// (ejected-clean replicas are immediately trial-eligible, keeping the
	// suites timing-independent), > 0 enables the window under test.
	BreakerCooldown time.Duration
	// AllowDegraded opts the coordinator into tagged partial answers.
	AllowDegraded bool
}

// Cluster is a running test cluster. Nodes[i] serves the coordinator's
// node i; replica r of logical shard s lives on Nodes[(s+r)%len(Nodes)]
// at slot s.
type Cluster struct {
	Nodes  []*Node
	Coord  *remote.Coordinator
	Metric metric.Metric
}

// Start boots the cluster and seeds it with the corpus; everything shuts
// down via t.Cleanup. labels may be nil for an unlabelled corpus.
func Start(t testing.TB, cfg Config, corpus []string, labels []int) *Cluster {
	t.Helper()
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Nodes
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.MetricName == "" {
		cfg.MetricName = "dC"
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "linear"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.Retries <= 0 {
		cfg.Retries = -1
	}
	probe := cfg.ProbeInterval
	if probe <= 0 {
		probe = -1
	}
	breaker := cfg.BreakerCooldown
	if breaker <= 0 {
		breaker = -1
	}
	m, err := metric.ByName(cfg.MetricName)
	if err != nil {
		t.Fatalf("clustertest: %v", err)
	}
	nodes := make([]*Node, cfg.Nodes)
	urls := make([]string, cfg.Nodes)
	for i := range nodes {
		scfg := remote.ServerConfig{
			Metric:    m,
			Algorithm: cfg.Algorithm,
			Pivots:    cfg.Pivots,
			Seed:      cfg.Seed,
		}
		ss, err := remote.NewShardServer(scfg)
		if err != nil {
			t.Fatalf("clustertest: node %d: %v", i, err)
		}
		n := &Node{Shard: ss, cfg: scfg}
		h := ss.Handler()
		n.handler.Store(&h)
		n.Srv = httptest.NewServer(n.inject())
		t.Cleanup(n.Srv.Close)
		nodes[i] = n
		urls[i] = n.Srv.URL
	}
	coord, err := remote.NewCoordinator(remote.Config{
		Nodes:           urls,
		Shards:          cfg.Shards,
		Replicas:        cfg.Replicas,
		RangeWidth:      cfg.RangeWidth,
		MetricName:      cfg.MetricName,
		Timeout:         cfg.Timeout,
		Retries:         cfg.Retries,
		HedgeAfter:      cfg.HedgeAfter,
		FailThreshold:   cfg.FailThreshold,
		ProbeInterval:   probe,
		BreakerCooldown: breaker,
		AllowDegraded:   cfg.AllowDegraded,
	})
	if err != nil {
		t.Fatalf("clustertest: %v", err)
	}
	t.Cleanup(coord.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.Seed(ctx, corpus, labels); err != nil {
		t.Fatalf("clustertest: seeding: %v", err)
	}
	return &Cluster{Nodes: nodes, Coord: coord, Metric: m}
}

// Heal clears every node's fault mode.
func (c *Cluster) Heal() {
	for _, n := range c.Nodes {
		n.SetFault(FaultNone)
	}
}

// Oracle is the monolithic reference the suites pin cluster answers to: a
// plain slice of live elements queried by exhaustive scan, mutated in
// lockstep with the cluster. Not safe for concurrent use — stress tests
// apply their recorded mutations after quiescing.
type Oracle struct {
	m      metric.Metric
	ids    []uint64
	values []string
	labels []int
}

// NewOracle mirrors the seeded corpus (element i gets ID i, the
// coordinator's numbering).
func NewOracle(m metric.Metric, corpus []string, labels []int) *Oracle {
	o := &Oracle{m: m}
	for i, v := range corpus {
		label := 0
		if labels != nil {
			label = labels[i]
		}
		o.Add(uint64(i), v, label)
	}
	return o
}

// Add mirrors a cluster add.
func (o *Oracle) Add(id uint64, v string, label int) {
	o.ids = append(o.ids, id)
	o.values = append(o.values, v)
	o.labels = append(o.labels, label)
}

// Delete mirrors a cluster delete, reporting whether the ID was live.
func (o *Oracle) Delete(id uint64) bool {
	for i, oid := range o.ids {
		if oid == id {
			o.ids = append(o.ids[:i], o.ids[i+1:]...)
			o.values = append(o.values[:i], o.values[i+1:]...)
			o.labels = append(o.labels[:i], o.labels[i+1:]...)
			return true
		}
	}
	return false
}

// Size returns the live element count.
func (o *Oracle) Size() int { return len(o.ids) }

// Live returns the live (id, value, label) rows sorted by ID.
func (o *Oracle) Live() (ids []uint64, values []string, labels []int) {
	idx := make([]int, len(o.ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return o.ids[idx[a]] < o.ids[idx[b]] })
	for _, i := range idx {
		ids = append(ids, o.ids[i])
		values = append(values, o.values[i])
		labels = append(labels, o.labels[i])
	}
	return ids, values, labels
}

// KNN returns the oracle's k smallest distances (ascending) and the set of
// IDs strictly below the k-th distance — the tie-insensitive signature a
// correct k-NN answer must reproduce exactly (see the in-process
// differential in internal/shard).
func (o *Oracle) KNN(q string, k int) (dists []float64, below map[uint64]bool, kth float64) {
	type pair struct {
		id uint64
		d  float64
	}
	rq := []rune(q)
	all := make([]pair, len(o.ids))
	for i, v := range o.values {
		all[i] = pair{id: o.ids[i], d: o.m.Distance(rq, []rune(v))}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	kth = math.Inf(1)
	if k > 0 {
		kth = all[k-1].d
	}
	below = map[uint64]bool{}
	for i := 0; i < k; i++ {
		dists = append(dists, all[i].d)
		if all[i].d < kth {
			below[all[i].id] = true
		}
	}
	return dists, below, kth
}

// RadiusIDs returns the exact (id, distance) rows within r of q, sorted by
// (distance, ID) — radius answers have no tie latitude.
func (o *Oracle) RadiusIDs(q string, r float64) (ids []uint64, dists []float64) {
	type pair struct {
		id uint64
		d  float64
	}
	rq := []rune(q)
	var in []pair
	for i, v := range o.values {
		if d := o.m.Distance(rq, []rune(v)); d <= r {
			in = append(in, pair{o.ids[i], d})
		}
	}
	sort.Slice(in, func(a, b int) bool {
		if in[a].d != in[b].d {
			return in[a].d < in[b].d
		}
		return in[a].id < in[b].id
	})
	for _, p := range in {
		ids = append(ids, p.id)
		dists = append(dists, p.d)
	}
	return ids, dists
}

// Distance evaluates the oracle's metric directly.
func (o *Oracle) Distance(a, b string) float64 {
	return o.m.Distance([]rune(a), []rune(b))
}

// BestLabels returns the minimal distance to q and the set of labels
// carried by elements at that distance — any of them is a correct
// classification.
func (o *Oracle) BestLabels(q string) (float64, map[int]bool) {
	rq := []rune(q)
	best := math.Inf(1)
	labels := map[int]bool{}
	for i, v := range o.values {
		d := o.m.Distance(rq, []rune(v))
		switch {
		case d < best:
			best = d
			labels = map[int]bool{o.labels[i]: true}
		case d == best:
			labels[o.labels[i]] = true
		}
	}
	return best, labels
}
