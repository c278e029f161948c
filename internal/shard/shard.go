// Package shard implements the sharded mutable corpus behind the serving
// layer: a Set partitions the corpus across N independent search indexes,
// fans each Query out over the striped worker pool and merges the
// per-shard answers through one Merger — passing the running k-th-best
// distance of already-merged shards into later shard queries as the
// pruning bound, so the staged bound ladder (internal/core) rejects
// candidates cross-shard.
//
// Mutation is epoch-based. Each shard holds an immutable snapshot behind an
// atomic pointer: a frozen base index plus a small linear-scanned delta and
// a tombstone set for deleted base elements. Add and Delete publish a new
// snapshot under a short per-shard lock (queries never take it), and a
// background compactor rebuilds the shard — live base plus delta, no
// tombstones — and atomically swaps it in, so reads never block on
// rebuilds and the delta never grows past the compaction threshold for
// long. The triangle inequality that dC preserves keeps per-shard pruning
// sound no matter how the corpus is partitioned, so sharding loses no
// correctness.
//
// Elements carry stable global IDs: the initial corpus keeps its positions
// (element i has ID i), every Add mints the next integer, and IDs are never
// reused. An ID's shard is ID mod N, so round-robin placement keeps shards
// balanced under pure growth.
//
// A Set persists to a blob store only (blobsnap.go): a Saver publishes
// incremental, manifest-committed snapshots and LoadFromStore restores the
// newest one without computing a distance.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ced/internal/metric"
	"ced/internal/search"
)

// DefaultCompactThreshold is the delta-plus-tombstone size at which a shard
// schedules a background compaction when Config.CompactThreshold is unset.
const DefaultCompactThreshold = 256

// BuildFunc constructs one shard's base index over its sub-corpus. It is
// called at Set construction, by the background compactor, and by
// LoadFromStore for bases that do not embed a serialised index.
type BuildFunc func(shardIdx int, corpus [][]rune) search.Index

// Config assembles a Set.
type Config struct {
	// Shards is the partition count; <= 0 means 1 (a sharded set with one
	// shard answers queries exactly like the monolithic index it wraps).
	Shards int
	// Metric is the distance shared by every shard; it evaluates the
	// linear-scanned delta entries and is handed to index loaders.
	Metric metric.Metric
	// Build constructs a shard's base index (see BuildFunc).
	Build BuildFunc
	// Algorithm optionally names the index kind Build produces; recorded
	// in snapshots so a Set cannot be restored under a different builder.
	Algorithm string
	// Workers bounds the query fan-out across shards; <= 0 uses all CPUs.
	Workers int
	// CompactThreshold is the per-shard delta-plus-tombstone size that
	// triggers a background compaction; <= 0 uses
	// DefaultCompactThreshold.
	CompactThreshold int
}

// entry is one live delta element.
type entry struct {
	id    uint64
	value string
	runes []rune
	label int
}

// Element is one corpus member together with its stable global ID — the
// unit the remote shard transport (internal/remote) ships when seeding,
// replicating and re-syncing shard replicas. Label is meaningful only for
// labelled sets.
type Element struct {
	ID    uint64 `json:"id"`
	Value string `json:"value"`
	Label int    `json:"label,omitempty"`
}

// state is one shard's immutable snapshot: queries load it from the atomic
// pointer and never observe a mutation in progress. Every field is frozen
// once published — mutations build a new state sharing the unchanged parts.
//
//ced:frozen
type state struct {
	// base is the frozen index over baseStrs; nil for an empty shard.
	base     search.Index
	baseStrs []string
	baseIDs  []uint64 // global ID of each base corpus position
	// baseLabels holds the class labels of the base elements; nil when the
	// set is unlabelled.
	baseLabels []int
	// baseByID maps a global ID to its base corpus position.
	baseByID map[uint64]int
	// tombs is the set of deleted base IDs. Delta deletions need no
	// tombstones — the delta arrays are rebuilt without the entry.
	tombs map[uint64]struct{}
	// dead is every ID ever deleted from this shard, base or delta. tombs
	// only covers base deletions (live() subtracts it from the base count,
	// so it must stay a subset of baseIDs); dead is what makes AddWithID's
	// "deleted IDs never resurrect" promise hold for delta entries too.
	dead map[uint64]struct{}
	// epoch is the compaction-swap count under which base was built. It
	// rides inside the snapshot (rather than being read from the shard's
	// counter separately) so a capture of this state pairs the base with
	// the right epoch even when a compaction swap races the capture — the
	// soundness condition for the incremental saver's "epoch unchanged ⇒
	// base unchanged" skip rule.
	epoch uint64

	// delta is a linear scanner over the live delta entries (nil when
	// none): mutation appends here, and every query scans it with the same
	// bounded evaluation the base indexes use.
	delta       *search.Linear
	deltaRunes  [][]rune
	deltaIDs    []uint64
	deltaStrs   []string
	deltaLabels []int
}

// live returns the number of live elements in this snapshot.
func (st *state) live() int {
	n := len(st.deltaIDs)
	if st.base != nil {
		n += len(st.baseIDs) - len(st.tombs)
	}
	return n
}

// shard is one partition: an atomically swapped immutable state plus the
// mutation lock and compaction bookkeeping.
type shard struct {
	idx   int
	state atomic.Pointer[state]
	// mu serialises mutations and the compaction swap; queries never take
	// it.
	mu sync.Mutex
	// epoch counts compaction swaps; it only ever increases.
	epoch      atomic.Uint64
	compacting atomic.Bool
}

// Set is the sharded mutable corpus. All methods are safe for concurrent
// use: queries read atomic per-shard snapshots, mutations hold a short
// per-shard lock, and compactions rebuild off to the side before an atomic
// swap.
type Set struct {
	metric    metric.Metric
	build     BuildFunc
	algorithm string
	workers   int
	threshold int
	labelled  bool
	shards    []*shard

	nextID      atomic.Uint64
	adds        atomic.Uint64
	deletes     atomic.Uint64
	compactions atomic.Uint64
	compactWG   sync.WaitGroup
}

// New partitions corpus round-robin across cfg.Shards shards and builds one
// base index per non-empty shard. labels must be empty or exactly
// len(corpus) long; when present every later Add must supply a label and
// every Hit carries its element's label. Element i of the corpus gets
// global ID i.
func New(corpus []string, labels []int, cfg Config) (*Set, error) {
	if len(labels) != 0 && len(labels) != len(corpus) {
		return nil, fmt.Errorf("shard: %d corpus strings but %d labels", len(corpus), len(labels))
	}
	elems := make([]Element, len(corpus))
	for i, v := range corpus {
		elems[i] = Element{ID: uint64(i), Value: v}
		if len(labels) != 0 {
			elems[i].Label = labels[i]
		}
	}
	return NewFromElements(elems, len(labels) != 0, cfg)
}

// NewFromElements builds a Set from elements carrying explicit global IDs —
// the constructor the remote shard transport uses to seed a replica with
// its slice of a cluster corpus (IDs are minted by the coordinator, so they
// are arbitrary here; placement inside the set is still ID mod shards).
// labelled is explicit because an empty or unlabelled-looking slice must
// still be able to declare a labelled corpus. Duplicate IDs are rejected.
// The set's next minted ID starts past the largest ID present.
func NewFromElements(elems []Element, labelled bool, cfg Config) (*Set, error) {
	if cfg.Metric == nil {
		return nil, fmt.Errorf("shard: nil metric")
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: nil build function")
	}
	seen := make(map[uint64]struct{}, len(elems))
	next := uint64(0)
	for _, e := range elems {
		if _, dup := seen[e.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate element ID %d", e.ID)
		}
		seen[e.ID] = struct{}{}
		if e.ID+1 > next {
			next = e.ID + 1
		}
	}
	s := newSet(cfg, labelled)
	n := uint64(len(s.shards))
	for i := range s.shards {
		var strs []string
		var ids []uint64
		var lbls []int
		for _, e := range elems {
			if e.ID%n != uint64(i) {
				continue
			}
			strs = append(strs, e.Value)
			ids = append(ids, e.ID)
			if s.labelled {
				lbls = append(lbls, e.Label)
			}
		}
		s.shards[i].state.Store(s.newBaseState(i, strs, ids, lbls))
	}
	s.nextID.Store(next)
	return s, nil
}

// newSet allocates the Set shell shared by New and Load.
func newSet(cfg Config, labelled bool) *Set {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	threshold := cfg.CompactThreshold
	if threshold <= 0 {
		threshold = DefaultCompactThreshold
	}
	s := &Set{
		metric:    cfg.Metric,
		build:     cfg.Build,
		algorithm: cfg.Algorithm,
		workers:   cfg.Workers,
		threshold: threshold,
		labelled:  labelled,
		shards:    make([]*shard, shards),
	}
	for i := range s.shards {
		s.shards[i] = &shard{idx: i}
	}
	return s
}

// newBaseState builds a shard state with the given base corpus and no
// delta, invoking the build function unless the shard is empty.
//
//ced:publish
func (s *Set) newBaseState(shardIdx int, strs []string, ids []uint64, labels []int) *state {
	st := &state{
		baseStrs:   strs,
		baseIDs:    ids,
		baseLabels: labels,
		baseByID:   make(map[uint64]int, len(ids)),
		tombs:      map[uint64]struct{}{},
		dead:       map[uint64]struct{}{},
	}
	for pos, id := range ids {
		st.baseByID[id] = pos
	}
	if len(strs) > 0 {
		runes := make([][]rune, len(strs))
		for i, v := range strs {
			runes[i] = []rune(v)
		}
		st.base = s.build(shardIdx, runes)
	}
	return st
}

// Labelled reports whether the set carries class labels.
func (s *Set) Labelled() bool { return s.labelled }

// Shards returns the partition count.
func (s *Set) Shards() int { return len(s.shards) }

// Algorithm returns the configured index kind name ("" when the Set was
// built without one).
func (s *Set) Algorithm() string { return s.algorithm }

// Size returns the number of live elements: base elements minus tombstones
// plus delta entries, summed over the shards. It is exact at every instant
// between mutations — the live view the Searcher contract's Size promises
// for a mutable corpus.
func (s *Set) Size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.state.Load().live()
	}
	return n
}

// NextID returns the ID the next Add will mint (also: one past the largest
// ID ever issued).
func (s *Set) NextID() uint64 { return s.nextID.Load() }

// Add inserts value with the given label (ignored for unlabelled sets) and
// returns its stable global ID. The entry lands in its shard's delta under
// a short lock and is visible to every query issued after Add returns; a
// background compaction folds it into the shard's base index later.
func (s *Set) Add(value string, label int) uint64 {
	id := s.nextID.Add(1) - 1
	s.insert(entry{id: id, value: value, runes: []rune(value), label: label})
	return id
}

// AddWithID inserts value under a caller-supplied global ID — the write
// path of a replicated cluster, where the coordinator mints the ID once and
// applies it to every replica. It reports whether the element was inserted:
// an ID that is already live is a no-op (false), which makes retried
// replication writes idempotent, and an ID that was ever deleted stays dead
// (false) so a stale retry can never resurrect it. The set's own ID
// allocator advances past id, so later Add calls never collide.
func (s *Set) AddWithID(id uint64, value string, label int) bool {
	for {
		cur := s.nextID.Load()
		if cur > id {
			break
		}
		if s.nextID.CompareAndSwap(cur, id+1) {
			break
		}
	}
	return s.insert(entry{id: id, value: value, runes: []rune(value), label: label})
}

// insert lands e in its shard's delta under the shard lock, refusing IDs
// that are already live or tombstoned. It reports whether e was inserted.
func (s *Set) insert(e entry) bool {
	sh := s.shards[e.id%uint64(len(s.shards))]

	sh.mu.Lock()
	st := sh.state.Load()
	if _, gone := st.dead[e.id]; gone {
		sh.mu.Unlock()
		return false
	}
	if _, ok := st.baseByID[e.id]; ok {
		sh.mu.Unlock()
		return false
	}
	for _, did := range st.deltaIDs {
		if did == e.id {
			sh.mu.Unlock()
			return false
		}
	}
	ns := st.clone()
	ns.appendDelta(s.metric, e)
	sh.state.Store(ns)
	sh.mu.Unlock()

	s.adds.Add(1)
	s.maybeCompact(sh)
	return true
}

// Delete removes the element with the given ID, reporting whether it was
// live. Base elements gain a tombstone (space is reclaimed at the next
// compaction); delta entries are dropped outright.
//
//ced:publish
func (s *Set) Delete(id uint64) bool {
	if id >= s.nextID.Load() {
		return false
	}
	sh := s.shards[id%uint64(len(s.shards))]

	sh.mu.Lock()
	st := sh.state.Load()
	var ns *state
	if _, ok := st.baseByID[id]; ok {
		if _, gone := st.tombs[id]; gone {
			sh.mu.Unlock()
			return false
		}
		ns = st.clone()
		tombs := make(map[uint64]struct{}, len(st.tombs)+1)
		for t := range st.tombs {
			tombs[t] = struct{}{}
		}
		tombs[id] = struct{}{}
		ns.tombs = tombs
	} else {
		found := false
		for _, did := range st.deltaIDs {
			if did == id {
				found = true
				break
			}
		}
		if !found {
			sh.mu.Unlock()
			return false
		}
		ns = st.clone()
		ns.rebuildDeltaWithout(s.metric, id)
	}
	dead := make(map[uint64]struct{}, len(st.dead)+1)
	for d := range st.dead {
		dead[d] = struct{}{}
	}
	dead[id] = struct{}{}
	ns.dead = dead
	sh.state.Store(ns)
	sh.mu.Unlock()

	s.deletes.Add(1)
	s.maybeCompact(sh)
	return true
}

// clone copies the state shell: base fields are shared (immutable), delta,
// tombstone and dead-ID containers still alias the original and must be
// replaced — never mutated — by the caller before publishing.
func (st *state) clone() *state {
	ns := *st
	return &ns
}

// appendDelta publishes a delta with e appended. The slices are re-copied
// so no published state ever shares a backing array that a later append
// could overwrite.
//
//ced:publish
func (st *state) appendDelta(m metric.Metric, e entry) {
	n := len(st.deltaIDs)
	runes := make([][]rune, n, n+1)
	copy(runes, st.deltaRunes)
	ids := make([]uint64, n, n+1)
	copy(ids, st.deltaIDs)
	strs := make([]string, n, n+1)
	copy(strs, st.deltaStrs)
	labels := make([]int, n, n+1)
	copy(labels, st.deltaLabels)
	st.deltaRunes = append(runes, e.runes)
	st.deltaIDs = append(ids, e.id)
	st.deltaStrs = append(strs, e.value)
	st.deltaLabels = append(labels, e.label)
	st.delta = search.NewLinear(st.deltaRunes, m)
}

// rebuildDeltaWithout publishes a delta with the entry id removed.
//
//ced:publish
func (st *state) rebuildDeltaWithout(m metric.Metric, id uint64) {
	n := len(st.deltaIDs)
	runes := make([][]rune, 0, n-1)
	ids := make([]uint64, 0, n-1)
	strs := make([]string, 0, n-1)
	labels := make([]int, 0, n-1)
	for i, did := range st.deltaIDs {
		if did == id {
			continue
		}
		runes = append(runes, st.deltaRunes[i])
		ids = append(ids, did)
		strs = append(strs, st.deltaStrs[i])
		labels = append(labels, st.deltaLabels[i])
	}
	st.deltaRunes, st.deltaIDs, st.deltaStrs, st.deltaLabels = runes, ids, strs, labels
	if len(ids) > 0 {
		st.delta = search.NewLinear(runes, m)
	} else {
		st.delta = nil
	}
}

// maybeCompact schedules a background compaction when the shard's mutable
// overlay (delta entries plus tombstones) has outgrown the threshold and no
// compaction is already in flight.
func (s *Set) maybeCompact(sh *shard) {
	st := sh.state.Load()
	if len(st.deltaIDs)+len(st.tombs) < s.threshold {
		return
	}
	if !sh.compacting.CompareAndSwap(false, true) {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		s.compactShard(sh)
		sh.compacting.Store(false)
		// Mutations that landed during the rebuild may already justify
		// another pass (the flag must be down first, or the re-check
		// would see this pass as still in flight and skip).
		s.maybeCompact(sh)
	}()
}

// Compact folds every shard's overlay (delta entries and tombstones) into
// its base index and returns once all shards are overlay-free, waiting out
// any in-flight background passes. Quiesce mutators first: a concurrent
// writer can re-dirty a shard and keep Compact looping.
func (s *Set) Compact() {
	for {
		s.Wait()
		clean := true
		for _, sh := range s.shards {
			st := sh.state.Load()
			if len(st.deltaIDs)+len(st.tombs) == 0 {
				continue
			}
			clean = false
			if sh.compacting.CompareAndSwap(false, true) {
				s.compactShard(sh)
				sh.compacting.Store(false)
			}
		}
		if clean {
			return
		}
	}
}

// Wait blocks until every in-flight background compaction has finished.
func (s *Set) Wait() { s.compactWG.Wait() }

// compactShard rebuilds sh's base from a snapshot's live elements (base
// order first, then delta order) and swaps it in. The swap re-checks the
// live state under the shard lock so mutations that raced the rebuild are
// carried over: entries added during the build stay in the new delta, and
// elements deleted during the build are tombstoned in the new base instead
// of resurrected.
//
//ced:publish
func (s *Set) compactShard(sh *shard) {
	snap := sh.state.Load()

	// Gather the snapshot's live elements.
	n := snap.live()
	strs := make([]string, 0, n)
	ids := make([]uint64, 0, n)
	var labels []int
	for pos, id := range snap.baseIDs {
		if _, dead := snap.tombs[id]; dead {
			continue
		}
		strs = append(strs, snap.baseStrs[pos])
		ids = append(ids, id)
		if snap.baseLabels != nil {
			labels = append(labels, snap.baseLabels[pos])
		}
	}
	snapDeltaIDs := make(map[uint64]struct{}, len(snap.deltaIDs))
	for i, id := range snap.deltaIDs {
		snapDeltaIDs[id] = struct{}{}
		strs = append(strs, snap.deltaStrs[i])
		ids = append(ids, id)
		if s.labelled {
			labels = append(labels, snap.deltaLabels[i])
		}
	}
	if s.labelled && labels == nil {
		labels = []int{}
	}

	// The expensive part — index construction — runs outside the lock.
	ns := s.newBaseState(sh.idx, strs, ids, labels)

	sh.mu.Lock()
	cur := sh.state.Load()
	// The dead-ID ledger survives compaction wholesale: cur.dead already
	// holds every deletion, including ones that raced the rebuild (aliasing
	// the published map is safe — Delete replaces it copy-on-write).
	ns.dead = cur.dead
	// Deletes that raced the rebuild: base deletes are still in cur.tombs;
	// delta deletes vanished from cur's delta arrays. Both target elements
	// now baked into the new base, so they become tombstones there.
	for id := range cur.tombs {
		if _, ok := ns.baseByID[id]; ok {
			ns.tombs[id] = struct{}{}
		}
	}
	curDelta := make(map[uint64]int, len(cur.deltaIDs))
	for i, id := range cur.deltaIDs {
		curDelta[id] = i
	}
	for id := range snapDeltaIDs {
		if _, stillLive := curDelta[id]; !stillLive {
			ns.tombs[id] = struct{}{}
		}
	}
	// Adds that raced the rebuild: cur delta entries not baked into the
	// new base form the new delta.
	for i, id := range cur.deltaIDs {
		if _, baked := snapDeltaIDs[id]; baked {
			continue
		}
		ns.appendDelta(s.metric, entry{
			id:    id,
			value: cur.deltaStrs[i],
			runes: cur.deltaRunes[i],
			label: cur.deltaLabels[i],
		})
	}
	ns.epoch = sh.epoch.Load() + 1
	sh.state.Store(ns)
	sh.epoch.Add(1)
	sh.mu.Unlock()
	s.compactions.Add(1)
}
