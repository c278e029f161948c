package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// Coordinator defaults.
const (
	DefaultFailThreshold   = 3
	DefaultProbeInterval   = 500 * time.Millisecond
	DefaultHedgePercentile = 0.95
	DefaultHedgeMin        = 1 * time.Millisecond
	DefaultHedgeMax        = 100 * time.Millisecond
	// DefaultBreakerCooldown is how long an ejected (but clean) replica's
	// breaker stays open — failing fast, receiving no traffic — before it
	// goes half-open and trial queries may probe it again.
	DefaultBreakerCooldown = 250 * time.Millisecond
)

// Config assembles a Coordinator.
type Config struct {
	// Nodes lists the shard-server base URLs (e.g. "http://10.0.0.7:9001").
	Nodes []string
	// Shards is the logical shard count S; <= 0 uses one per node.
	Shards int
	// Replicas is the replication factor R (replica r of shard s lives on
	// node (s+r) mod len(Nodes)); <= 0 means 1, clamped to the node count.
	Replicas int
	// RangeWidth is the ID-range placement block: element ID id belongs to
	// logical shard (id / RangeWidth) mod S, so each shard owns cyclic
	// contiguous ID ranges. <= 0 defers to Seed, which picks
	// ceil(corpus/S) so the initial corpus splits into S contiguous runs.
	RangeWidth int
	// MetricName is the distance the cluster serves; seeding asserts every
	// node agrees, because a mixed-metric cluster would silently lose the
	// exactness guarantee.
	MetricName string

	// Timeout and Retries tune every per-replica client (see
	// ClientConfig).
	Timeout time.Duration
	Retries int

	// HedgeAfter is a fixed hedge delay: a query that outlives it races a
	// second replica. 0 selects the adaptive policy — the
	// DefaultHedgePercentile-th recent per-shard latency, clamped to
	// [DefaultHedgeMin, DefaultHedgeMax]. Negative disables hedging
	// (failover only).
	HedgeAfter time.Duration

	// FailThreshold ejects a replica after this many consecutive failed
	// calls; <= 0 uses DefaultFailThreshold.
	FailThreshold int
	// ProbeInterval paces the background readmission loop; 0 uses
	// DefaultProbeInterval, negative disables it (tests drive Probe
	// directly).
	ProbeInterval time.Duration
	// BreakerCooldown is the per-replica circuit-breaker open window: an
	// ejected clean replica receives no traffic at all until it elapses,
	// then goes half-open and may serve trial queries (a success closes the
	// breaker, a failure re-arms the window). 0 uses
	// DefaultBreakerCooldown; negative disables the open window, making
	// every ejected-clean replica an immediate last resort.
	BreakerCooldown time.Duration

	// AllowDegraded opts the coordinator into partial answers: when every
	// replica of some logical shard is unusable, a fanned query returns the
	// hits of the shards that did answer together with a *serve.Degraded
	// error naming the missing shards, instead of failing outright. Off by
	// default — a silent partial answer would void the exactness guarantee,
	// so callers must both opt in here and handle the tagged error.
	AllowDegraded bool

	// MaxInFlight bounds concurrently admitted client-facing queries on the
	// coordinator HTTP handler (see serve.Config.MaxInFlight); <= 0
	// disables admission control. MaxQueueWait and RetryAfter follow the
	// serve.Gate conventions.
	MaxInFlight  int
	MaxQueueWait time.Duration
	RetryAfter   int

	// HTTPClient optionally shares one transport across all replicas.
	HTTPClient *http.Client
}

// Coordinator serves the cluster: it owns the placement (ID ranges over
// logical shards, shards over nodes), mints element IDs, replicates every
// write R ways, fans queries over the logical shards with the cross-shard
// pruning bound, hedges slow replicas, and tracks per-replica health. All
// methods are safe for concurrent use after Seed.
type Coordinator struct {
	cfg      Config
	replicas [][]*replica // [shard][r]
	// writeMu serialises replicated writes per shard — and the re-sync a
	// readmission needs — so a recovering replica can never miss a write
	// that lands between its dump and its reseed.
	writeMu []sync.Mutex
	// sizes holds each logical shard's live element count: Seed sets it,
	// and every successful write sets it from its acknowledgement under
	// the shard's writeMu. All live replicas apply the same writes under
	// that lock, so any replica's acknowledged size is the shard's.
	sizes []atomic.Int64

	labelled   bool
	rangeWidth int
	nextID     atomic.Uint64

	// rr rotates each shard's primary replica independently. One global
	// counter would be bumped exactly S times per fanned query, so with S
	// even every shard would see a fixed parity and the "rotation" would
	// pin each shard to one replica forever.
	rr      []atomic.Uint64
	hedged  atomic.Uint64
	retried atomic.Uint64
	// gate is the client-facing front door (admission control, the
	// cancellation counters, the error→status map); degraded counts the
	// partial answers served for /healthz.
	gate     *serve.Gate
	degraded atomic.Uint64
	// resyncSeeds counts replica re-syncs: a healthy peer's dump reseeded
	// into the recovering replica.
	resyncSeeds atomic.Uint64
	lat         latencyRing

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// NewCoordinator wires the placement and starts the readmission loop. The
// cluster is unusable until Seed (or a node-side pre-seeded topology with
// matching placement) provides corpus content.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("remote: coordinator needs at least one node")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = len(cfg.Nodes)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Nodes) {
		return nil, fmt.Errorf("remote: %d replicas need at least that many nodes (have %d)",
			cfg.Replicas, len(cfg.Nodes))
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	ccfg := ClientConfig{
		Timeout:    cfg.Timeout,
		Retries:    cfg.Retries,
		HTTPClient: cfg.HTTPClient,
	}
	c := &Coordinator{
		cfg:        cfg,
		replicas:   make([][]*replica, cfg.Shards),
		writeMu:    make([]sync.Mutex, cfg.Shards),
		sizes:      make([]atomic.Int64, cfg.Shards),
		rr:         make([]atomic.Uint64, cfg.Shards),
		rangeWidth: cfg.RangeWidth,
		gate:       serve.NewGate(cfg.MaxInFlight, cfg.MaxQueueWait, cfg.RetryAfter),
		stopProbe:  make(chan struct{}),
	}
	for s := 0; s < cfg.Shards; s++ {
		c.replicas[s] = make([]*replica, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			node := (s + r) % len(cfg.Nodes)
			c.replicas[s][r] = &replica{
				node:   node,
				shard:  s,
				client: NewClient(cfg.Nodes[node], s, ccfg),
			}
		}
	}
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the background readmission loop.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stopProbe) })
	c.probeWG.Wait()
}

// Shards and Replicas report the placement dimensions.
func (c *Coordinator) Shards() int   { return len(c.replicas) }
func (c *Coordinator) Replicas() int { return c.cfg.Replicas }

// RangeWidth reports the ID-range placement block (0 before Seed when the
// config deferred it).
func (c *Coordinator) RangeWidth() int { return c.rangeWidth }

// Labelled reports whether the seeded corpus carries class labels.
func (c *Coordinator) Labelled() bool { return c.labelled }

// NextID returns the ID the next Add will mint.
func (c *Coordinator) NextID() uint64 { return c.nextID.Load() }

// owner maps a global element ID to its logical shard.
func (c *Coordinator) owner(id uint64) int {
	return int((id / uint64(c.rangeWidth)) % uint64(len(c.replicas)))
}

// Seed pushes the initial corpus to every replica of every shard: element i
// gets global ID i, IDs split into cyclic contiguous ranges of rangeWidth,
// and each shard's slice lands on all R of its replicas. Seeding is strict
// — every replica must accept its slice — because a cluster that boots
// partially replicated would degrade its fault story silently. Call before
// serving; Seed is not concurrency-safe against queries or writes.
func (c *Coordinator) Seed(ctx context.Context, corpus []string, labels []int) error {
	if len(labels) != 0 && len(labels) != len(corpus) {
		return fmt.Errorf("remote: %d corpus strings but %d labels", len(corpus), len(labels))
	}
	c.labelled = len(labels) != 0
	if c.rangeWidth <= 0 {
		c.rangeWidth = (len(corpus) + len(c.replicas) - 1) / len(c.replicas)
		if c.rangeWidth <= 0 {
			c.rangeWidth = 1024
		}
	}
	slices := make([][]shard.Element, len(c.replicas))
	for i, v := range corpus {
		e := shard.Element{ID: uint64(i), Value: v}
		if c.labelled {
			e.Label = labels[i]
		}
		s := c.owner(e.ID)
		slices[s] = append(slices[s], e)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.replicas))
	for s := range c.replicas {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, rep := range c.replicas[s] {
				if err := rep.client.Seed(ctx, c.cfg.MetricName, c.labelled, slices[s]); err != nil {
					errs[s] = fmt.Errorf("seeding shard %d on %s: %w", s, rep.client.Base(), err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for s := range slices {
		c.sizes[s].Store(int64(len(slices[s])))
	}
	c.nextID.Store(uint64(len(corpus)))
	return nil
}

// queryOrder returns shard s's replicas in routing order: healthy
// (breaker-closed) replicas first, rotated round-robin for load spreading,
// then half-open ones — ejected clean replicas whose breaker cooldown has
// elapsed — as trial-eligible fallbacks. Replicas with an open breaker are
// skipped outright (fail fast: a node that just failed repeatedly gets a
// quiet window, not more traffic), and stale replicas never appear — they
// may have missed writes, and one approximate answer would void the
// cluster's guarantee.
func (c *Coordinator) queryOrder(s int) []*replica {
	reps := c.replicas[s]
	start := int(c.rr[s].Add(1)) % len(reps)
	var healthy, fallback []*replica
	for i := range reps {
		rep := reps[(start+i)%len(reps)]
		switch {
		case rep.healthy():
			healthy = append(healthy, rep)
		case rep.usable(c.cfg.BreakerCooldown):
			fallback = append(fallback, rep)
		}
	}
	return append(healthy, fallback...)
}

// hedgeDelay resolves the current hedge trigger.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter != 0 {
		return c.cfg.HedgeAfter
	}
	d := c.lat.percentile(DefaultHedgePercentile)
	if d == 0 {
		return DefaultHedgeMax
	}
	return min(max(d, DefaultHedgeMin), DefaultHedgeMax)
}

// shardAnswer is one replica's reply to a fanned shard query.
type shardAnswer struct {
	hits  []shard.Hit
	stats shard.Stats
	err   error
}

// queryShard answers one logical shard's part of a query, racing replicas:
// the primary goes first; a hedge replica launches when the primary
// outlives the hedge delay, and a failover replica launches immediately on
// error. Every attempt runs under its own cancellable child context, all of
// which are cancelled the moment a winner returns (or the caller gives up)
// — so a losing replica stops computing immediately instead of finishing
// an answer nobody will read; with the budget header the cancellation
// reaches all the way into the shard-side scan loop. The first success
// wins (all answers are exact — replicas are interchangeable) and health
// is recorded per replica. When every replica fails, the error is the
// caller's own cancellation or deadline if there is one, and otherwise a
// cluster fault that answers 502 whatever status a replica gave.
func (c *Coordinator) queryShard(ctx context.Context, s int, call func(context.Context, *Client) ([]shard.Hit, shard.Stats, error)) ([]shard.Hit, shard.Stats, error) {
	order := c.queryOrder(s)
	if len(order) == 0 {
		return nil, shard.Stats{}, fmt.Errorf("remote: shard %d has no usable replica", s)
	}
	// cancels is touched only by this goroutine (launches happen in the
	// select loop below); the deferred sweep reaps every still-running
	// attempt on all return paths, including the winner's.
	cancels := make([]context.CancelFunc, 0, len(order))
	defer func() {
		for _, cn := range cancels {
			cn()
		}
	}()
	resCh := make(chan shardAnswer, len(order))
	launch := func(rep *replica) {
		actx, acancel := context.WithCancel(ctx)
		cancels = append(cancels, acancel)
		go func() {
			t0 := time.Now()
			hits, st, err := call(actx, rep.client)
			if err == nil {
				c.lat.record(time.Since(t0))
				rep.recordSuccess()
			} else if actx.Err() == nil {
				// A loser cancelled after the winner returned is not a
				// health signal; a real failure is.
				rep.recordFailure(err, c.cfg.FailThreshold)
			}
			resCh <- shardAnswer{hits, st, err}
		}()
	}
	launch(order[0])
	next, pending := 1, 1
	var hedgeTimer <-chan time.Time
	if next < len(order) && c.cfg.HedgeAfter >= 0 {
		hedgeTimer = time.After(c.hedgeDelay())
	}
	var lastErr error
	for pending > 0 {
		select {
		case a := <-resCh:
			pending--
			if a.err == nil {
				return a.hits, a.stats, nil
			}
			lastErr = a.err
			if next < len(order) {
				c.retried.Add(1)
				launch(order[next])
				next++
				pending++
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if next < len(order) {
				c.hedged.Add(1)
				launch(order[next])
				next++
				pending++
			}
		case <-ctx.Done():
			return nil, shard.Stats{}, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, shard.Stats{}, err
	}
	// %v, not %w: a replica's own verdict (a restarted host's 404 "slot not
	// seeded", its per-attempt timeout) describes that replica, not the
	// caller's request. With every replica gone the shard is a fault behind
	// the coordinator, answered 502.
	return nil, shard.Stats{}, fmt.Errorf("remote: shard %d: every replica failed: %v", s, lastErr)
}

// Query answers req over the live cluster — the k nearest elements (ties
// by ID) or every element within a radius, sorted by (distance, ID) — the
// monolithic engine's answer, assembled remotely through one shard.Merger.
// Every k-NN shard request carries the merger's running k-th-best distance
// at launch time, so late shards (and hedged retries) prune against the
// tightest-known cross-cluster bound, exactly like the in-process fan-out.
//
// By default any shard failure fails the query: a partial answer would be
// silently approximate, which this cluster never is. With
// Config.AllowDegraded, shard-unavailability failures instead drop that
// shard from the answer and Query returns the surviving shards' merged
// answer with a *serve.Degraded error naming the missing ones — but only
// if at least one shard answered, and never for the caller's own
// cancellation, which stays loud. An invalid req is the caller's mistake:
// a 400 serve.StatusError.
func (c *Coordinator) Query(ctx context.Context, q string, req search.Request) ([]shard.Hit, shard.Stats, error) {
	if err := req.Validate(); err != nil {
		return nil, shard.Stats{}, &serve.StatusError{Status: http.StatusBadRequest, Err: fmt.Errorf("remote: %w", err)}
	}
	mg := shard.NewMerger(req)
	stats := make([]shard.Stats, len(c.replicas))
	errs := make([]error, len(c.replicas))
	var wg sync.WaitGroup
	for s := range c.replicas {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var hits []shard.Hit
			hits, stats[s], errs[s] = c.queryShard(ctx, s, func(ctx context.Context, cl *Client) ([]shard.Hit, shard.Stats, error) {
				return cl.Query(ctx, q, mg.Request())
			})
			if errs[s] == nil {
				mg.Offer(hits)
			}
		}(s)
	}
	wg.Wait()
	var total shard.Stats
	var missing []int
	for s, err := range errs {
		if err != nil {
			if !c.cfg.AllowDegraded || !degradable(err) {
				return nil, shard.Stats{}, err
			}
			missing = append(missing, s)
			continue
		}
		total.Add(stats[s])
	}
	if len(missing) == len(c.replicas) {
		// Every shard is gone: there is no partial answer to degrade to.
		return nil, shard.Stats{}, errs[missing[0]]
	}
	if len(missing) > 0 {
		c.degraded.Add(1)
		return mg.Hits(), total, &serve.Degraded{MissingShards: missing}
	}
	return mg.Hits(), total, nil
}

// degradable reports whether a shard failure may be absorbed into a
// degraded answer: cluster faults qualify; the caller's own cancellation
// never does (degrading it would mask the real outcome).
func degradable(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// writeReplicas applies op to every replica of shard s under the shard
// write lock. Ejected replicas are skipped and marked stale (they are
// missing this write until a re-sync); replicas whose op fails after the
// client's retries are ejected and marked stale. The write succeeds if at
// least one replica applied it, and then the shard's live size becomes
// the size op returned from that replica's acknowledgement.
func (c *Coordinator) writeReplicas(s int, op func(*replica) (size int, err error)) error {
	c.writeMu[s].Lock()
	defer c.writeMu[s].Unlock()
	reps := c.replicas[s]
	var live []*replica
	for _, rep := range reps {
		if rep.healthy() {
			live = append(live, rep)
		} else {
			rep.markStale()
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("remote: shard %d: no live replica to write to", s)
	}
	var wg sync.WaitGroup
	results := make([]error, len(live))
	sizes := make([]int, len(live))
	for i, rep := range live {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			sizes[i], results[i] = op(rep)
		}(i, rep)
	}
	wg.Wait()
	ok := 0
	var lastErr error
	for i, rep := range live {
		if results[i] == nil {
			rep.recordSuccess()
			c.sizes[s].Store(int64(sizes[i]))
			ok++
		} else {
			lastErr = results[i]
			rep.recordFailure(results[i], 1) // a failed write ejects immediately
			rep.markStale()
		}
	}
	if ok == 0 {
		return fmt.Errorf("remote: shard %d: write applied on no replica: %w", s, lastErr)
	}
	return nil
}

// Add inserts value into the live cluster corpus and returns its stable
// coordinator-minted ID. The write lands on every live replica of the
// owning shard before Add acknowledges; replicas that miss it are ejected
// as stale and re-synced before readmission, so acknowledged writes are
// never lost and queries never observe a replica that missed one.
func (c *Coordinator) Add(ctx context.Context, value string, label int) (uint64, error) {
	id := c.nextID.Add(1) - 1
	s := c.owner(id)
	err := c.writeReplicas(s, func(rep *replica) (int, error) {
		_, size, err := rep.client.Add(ctx, shard.Element{ID: id, Value: value, Label: label})
		return size, err
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Delete removes the element with the given ID, reporting whether any
// replica observed it live. Deleted IDs never resurface: the slot sets
// tombstone them and refuse re-insertion.
func (c *Coordinator) Delete(ctx context.Context, id uint64) (bool, error) {
	if id >= c.nextID.Load() {
		return false, nil
	}
	s := c.owner(id)
	var mu sync.Mutex
	deleted := false
	err := c.writeReplicas(s, func(rep *replica) (int, error) {
		applied, size, err := rep.client.Delete(ctx, id)
		if err == nil && applied {
			mu.Lock()
			deleted = true
			mu.Unlock()
		}
		return size, err
	})
	if err != nil {
		return false, err
	}
	return deleted, nil
}

// Compact folds every live replica's mutation overlay into its base index.
func (c *Coordinator) Compact(ctx context.Context) error {
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := range c.replicas {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			err := c.writeReplicas(s, func(rep *replica) (int, error) {
				return rep.client.Compact(ctx)
			})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return firstErr
}

// Size sums the logical shards' live sizes, as Seed and each shard's last
// write acknowledgement set them; it makes no shard call.
func (c *Coordinator) Size() int {
	total := 0
	for s := range c.sizes {
		total += int(c.sizes[s].Load())
	}
	return total
}

// Elements dumps the full live cluster content sorted by ID (differential
// and audit hook). Quiesce mutators for a consistent view.
func (c *Coordinator) Elements(ctx context.Context) ([]shard.Element, error) {
	var all []shard.Element
	for s := range c.replicas {
		var elems []shard.Element
		_, _, err := c.queryShard(ctx, s, func(ctx context.Context, cl *Client) ([]shard.Hit, shard.Stats, error) {
			_, es, err := cl.Dump(ctx)
			if err != nil {
				return nil, shard.Stats{}, err
			}
			elems = es
			return nil, shard.Stats{}, nil
		})
		if err != nil {
			return nil, err
		}
		all = append(all, elems...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ID < all[b].ID })
	return all, nil
}

// probeLoop drives periodic readmission probes until Close.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-ticker.C:
			c.Probe(context.Background())
		}
	}
}

// Probe attempts to readmit every ejected replica: a liveness probe first;
// then, if the replica is stale (it missed replicated writes) or its host
// restarted empty, a re-sync — dump from a healthy peer, reseed the
// recovering replica — under the shard's write lock so no concurrent write
// can fall between dump and reseed. Only a clean, current replica
// re-enters the query rotation; a failed re-sync becomes the replica's
// last error in Info. Exposed so tests (and operators) can force
// a readmission cycle.
func (c *Coordinator) Probe(ctx context.Context) {
	for s := range c.replicas {
		for _, rep := range c.replicas[s] {
			if !rep.isEjected() {
				continue
			}
			if _, err := rep.client.Info(ctx); err != nil {
				// A host that crashed and came back answers the probe
				// with 404 "slot not seeded": it is alive but lost its
				// state, which only the re-sync below can restore. Any
				// other failure means still unreachable.
				var se *serve.StatusError
				if !errors.As(err, &se) || se.Status != http.StatusNotFound {
					continue // still unreachable; try again next cycle
				}
				rep.markStale()
			}
			c.writeMu[s].Lock()
			if rep.isStale() {
				if err := c.resync(ctx, s, rep); err != nil {
					rep.recordFailure(err, c.cfg.FailThreshold)
					c.writeMu[s].Unlock()
					continue
				}
				rep.clearStale()
			}
			rep.readmit()
			c.writeMu[s].Unlock()
		}
	}
}

// resync rebuilds rep's slot to match a healthy peer replica of shard s:
// the donor's full live content is dumped and reseeded into the recovering
// replica, which rebuilds its index from it. The caller holds the shard
// write lock, so no write can fall between the donor's dump and the
// recovering replica's reseed. When no donor's dump succeeds, the error
// says why: the last dump's failure, or that no donor was healthy.
func (c *Coordinator) resync(ctx context.Context, s int, rep *replica) error {
	var dumpErr error
	for _, donor := range c.replicas[s] {
		if donor == rep || !donor.healthy() || donor.isStale() {
			continue
		}
		labelled, elems, err := donor.client.Dump(ctx)
		if err != nil {
			dumpErr = err
			continue
		}
		if err := rep.client.Seed(ctx, c.cfg.MetricName, labelled, elems); err != nil {
			return err
		}
		c.resyncSeeds.Add(1)
		return nil
	}
	if dumpErr != nil {
		return fmt.Errorf("remote: shard %d: re-sync dump: %w", s, dumpErr)
	}
	return fmt.Errorf("remote: shard %d: no healthy donor for re-sync", s)
}

// ClusterInfo is the coordinator's /healthz view: placement, counters and
// per-replica health. It is assembled locally — no remote calls — so the
// health endpoint stays responsive when nodes are not.
type ClusterInfo struct {
	Nodes      []string `json:"nodes"`
	Shards     int      `json:"shards"`
	Replicas   int      `json:"replicas"`
	RangeWidth int      `json:"range_width"`
	Labelled   bool     `json:"labelled"`
	NextID     uint64   `json:"next_id"`
	// Healthy reports whether every logical shard has at least one healthy
	// replica (the cluster can answer exactly).
	Healthy bool `json:"healthy"`
	// Hedged and Retried count launched hedge and failover requests.
	Hedged  uint64 `json:"hedged"`
	Retried uint64 `json:"retried"`
	// Overload and cancellation outcomes: queries shed by admission
	// control, abandoned by their clients, out of deadline budget, and
	// answered partially under AllowDegraded.
	Shed             uint64 `json:"shed"`
	Cancelled        uint64 `json:"cancelled"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	DegradedServed   uint64 `json:"degraded_served"`
	// AllowDegraded echoes the partial-answer opt-in; BreakerCooldownMS is
	// the per-replica circuit-breaker open window in force.
	AllowDegraded     bool    `json:"allow_degraded"`
	BreakerCooldownMS float64 `json:"breaker_cooldown_ms"`
	// ResyncSeeds counts replica re-syncs: a peer's dump reseeded into a
	// recovering replica.
	ResyncSeeds uint64 `json:"resync_seeds"`
	// HedgeDelayMS is the hedge trigger currently in force.
	HedgeDelayMS float64 `json:"hedge_delay_ms"`
	// ReplicaHealth lists every replica, shard-major.
	ReplicaHealth []ReplicaHealth `json:"replica_health"`
}

// Info returns the current cluster health snapshot.
func (c *Coordinator) Info() ClusterInfo {
	o := c.gate.Overload()
	info := ClusterInfo{
		Nodes:             c.cfg.Nodes,
		Shards:            len(c.replicas),
		Replicas:          c.cfg.Replicas,
		RangeWidth:        c.rangeWidth,
		Labelled:          c.labelled,
		NextID:            c.nextID.Load(),
		Healthy:           true,
		Hedged:            c.hedged.Load(),
		Retried:           c.retried.Load(),
		Shed:              o.Shed,
		Cancelled:         o.Cancelled,
		DeadlineExceeded:  o.DeadlineExceeded,
		DegradedServed:    c.degraded.Load(),
		AllowDegraded:     c.cfg.AllowDegraded,
		BreakerCooldownMS: float64(c.cfg.BreakerCooldown) / float64(time.Millisecond),
		ResyncSeeds:       c.resyncSeeds.Load(),
		HedgeDelayMS:      float64(c.hedgeDelay()) / float64(time.Millisecond),
	}
	for s := range c.replicas {
		anyHealthy := false
		for _, rep := range c.replicas[s] {
			snap := rep.snapshot(c.cfg.Nodes[rep.node], c.cfg.BreakerCooldown)
			info.ReplicaHealth = append(info.ReplicaHealth, snap)
			anyHealthy = anyHealthy || snap.Healthy
		}
		if !anyHealthy {
			info.Healthy = false
		}
	}
	return info
}
