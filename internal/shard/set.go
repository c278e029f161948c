package shard

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ced/internal/pool"
	"ced/internal/search"
)

// Hit is one merged query answer: a live element identified by its stable
// global ID.
type Hit struct {
	ID       uint64  `json:"id"`
	Value    string  `json:"value"`
	Label    int     `json:"label,omitempty"`
	Distance float64 `json:"distance"`
}

// Stats is the work a fanned query spent, summed over the shards: distance
// evaluations (delta entries count one each, like any linear scan) and the
// per-stage ladder rejections among them, whether or not a shard found
// anything. With more than one shard a k-NN query's counts can vary run to
// run — the cross-shard bound each shard starts from depends on which
// shards merged first — while the merged answer stays the same (see Query).
type Stats = search.Stats

// atomicFloat is a lock-free float64 cell (bit-pattern atomics): the shared
// cross-shard pruning bound.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// Merger accumulates the answers of independent sub-corpora — local shards
// here, remote shard replicas in internal/remote — into one answer ordered
// by (distance, ID): every hit of a radius query, or the top k of a k-NN
// query, whose running k-th-best distance it publishes as the pruning bound
// for sub-queries that start (or retry) later. All methods are safe for
// concurrent use.
type Merger struct {
	mu   sync.Mutex
	req  search.Request
	hits []Hit
	// bound starts at the request's bound (+Inf for a plain k-NN query)
	// and, for k-NN, only ever shrinks: the k-th best distance once k hits
	// are held. Reads are lock-free hints: a stale (looser) bound costs
	// pruning power, never correctness.
	bound atomicFloat
}

// NewMerger returns a Merger for the answer to req.
func NewMerger(req search.Request) *Merger {
	m := &Merger{req: req}
	m.bound.store(req.Bound())
	return m
}

// Request returns the request a sub-corpus query should run now: a radius
// query unchanged, a k-NN query bounded by the current k-th best distance
// (never looser than the request's own bound; possibly stale, which is
// always safe).
func (m *Merger) Request() search.Request {
	if m.req.IsRadius() {
		return m.req
	}
	return search.KNN(m.req.K(), m.bound.load())
}

// Hits returns the merged answer so far, closest first (ties by ID).
// Callers must not offer concurrently with reading the returned slice.
func (m *Merger) Hits() []Hit { return m.hits }

// Offer merges a sub-corpus's hits and tightens the shared bound.
func (m *Merger) Offer(cands []Hit) {
	if len(cands) == 0 || !m.req.IsRadius() && m.req.K() <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hits = append(m.hits, cands...)
	slices.SortFunc(m.hits, func(a, b Hit) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if k := m.req.K(); !m.req.IsRadius() && len(m.hits) >= k {
		m.hits = m.hits[:k]
		if d := m.hits[k-1].Distance; d < m.bound.load() {
			m.bound.store(d)
		}
	}
}

// Query answers req over the live elements: the k nearest (ties by ID) or
// every element within a radius, sorted by (distance, ID), plus the total
// work spent. The query fans across the shards on the worker pool and
// merges through one Merger; each k-NN shard query starts from the
// merger's current k-th-best distance, so shards merged late evaluate
// their candidates under an already-tight cutoff and the bound ladder
// rejects them cheaply. The merged answer equals the monolithic index's
// modulo equal-distance ties at the k-th rank: each shard returns every
// element within the bound it was given, and bounds never drop below the
// final k-th-best distance.
//
// Each shard's scan polls ctx every few candidates (see internal/cancel):
// a cancelled query stops evaluating across all shards and returns ctx's
// error with the work every shard had already spent — never a partial
// answer. Answers are bit-identical when ctx is not cancelled.
func (s *Set) Query(ctx context.Context, q []rune, req search.Request) ([]Hit, Stats, error) {
	states := s.snapshot()
	mg := NewMerger(req)
	stats := make([]Stats, len(states))
	errs := make([]error, len(states))
	pool.Fan(len(states), s.workers, func(i int) {
		var cands []Hit
		cands, stats[i], errs[i] = s.queryShard(ctx, states[i], q, mg.Request())
		if errs[i] == nil {
			mg.Offer(cands)
		}
	})
	var total Stats
	for _, st := range stats {
		total.Add(st)
	}
	for _, err := range errs {
		if err != nil {
			return nil, total, err
		}
	}
	return mg.Hits(), total, nil
}

// KNearestCtx returns the k nearest live elements to q: Query with
// search.KNN(k, +Inf).
func (s *Set) KNearestCtx(ctx context.Context, q []rune, k int) ([]Hit, Stats, error) {
	return s.Query(ctx, q, search.KNN(k, math.Inf(1)))
}

// snapshot loads every shard's current state pointer: the consistent view
// one query runs against (later mutations land in states a later query
// will see).
func (s *Set) snapshot() []*state {
	states := make([]*state, len(s.shards))
	for i, sh := range s.shards {
		states[i] = sh.state.Load()
	}
	return states
}

// baseHit and deltaHit convert a search.Result into the merged Hit form.
func (st *state) baseHit(r search.Result) Hit {
	h := Hit{ID: st.baseIDs[r.Index], Value: st.baseStrs[r.Index], Distance: r.Distance}
	if st.baseLabels != nil {
		h.Label = st.baseLabels[r.Index]
	}
	return h
}

func (st *state) deltaHit(r search.Result) Hit {
	return Hit{
		ID:       st.deltaIDs[r.Index],
		Value:    st.deltaStrs[r.Index],
		Label:    st.deltaLabels[r.Index],
		Distance: r.Distance,
	}
}

// queryShard answers one shard's part of a query: the base index, with
// the shard's tombstones excluded from its hits (so deleted elements can
// neither crowd live ones out of a k-NN answer nor loosen its pruning
// bound), then the linear delta scan under the same request. The returned
// Stats always reflect the work actually spent.
func (s *Set) queryShard(ctx context.Context, st *state, q []rune, req search.Request) ([]Hit, Stats, error) {
	var cands []Hit
	var stats Stats
	if st.base != nil {
		ans, err := st.base.Query(ctx, q, req.Excluding(st.tombMask))
		stats.Add(ans.Stats)
		if err != nil {
			return nil, stats, err
		}
		for _, r := range ans.Hits {
			cands = append(cands, st.baseHit(r))
		}
	}
	if st.delta != nil {
		ans, err := st.delta.Query(ctx, q, req)
		stats.Add(ans.Stats)
		if err != nil {
			return nil, stats, err
		}
		for _, r := range ans.Hits {
			cands = append(cands, st.deltaHit(r))
		}
	}
	return cands, stats, nil
}
