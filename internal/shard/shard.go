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
// a tombstone mask over the deleted base elements. Add and Delete publish a
// new snapshot under a short per-shard lock (queries never take it), and a
// background compactor rebuilds the shard — live base plus delta, no
// tombstones — and atomically swaps it in, so reads never block on
// rebuilds and the delta never grows past the compaction threshold for
// long. The triangle inequality that dC preserves keeps per-shard pruning
// sound no matter how the corpus is partitioned, so sharding loses no
// correctness.
//
// Each shard records its deletions once, in a ledger of every ID ever
// deleted from it. The ledger lives beside the snapshot, under the shard's
// mutation lock, and grows in place. A snapshot's tombstones derive from
// it: they are the base positions whose IDs the ledger holds. Since a
// deleted ID never returns (AddWithID refuses it, and Add mints fresh
// IDs), a tombstone, once set, stays right until a compaction drops its
// element.
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
	"math"
	"math/bits"
	"slices"
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
// A state keeps no record of deletions beyond its tombstone mask: the
// shard's ledger is that record (see shard.dead).
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
	// tombs masks the base positions of deleted base elements (nil when
	// none); the base query excludes them. It equals the base IDs the
	// shard's ledger holds. Deleted delta entries need no tombstone: they
	// are simply gone from delta.
	tombs search.Mask
	// epoch is the compaction-swap count under which base was built. It
	// rides inside the snapshot (rather than being read from the shard's
	// counter separately) so a capture of this state pairs the base with
	// the right epoch even when a compaction swap races the capture — the
	// soundness condition for the incremental saver's "epoch unchanged ⇒
	// base unchanged" skip rule.
	epoch uint64

	// delta holds the live entries added since base was built, in
	// insertion order, and deltaScan is a linear scanner over their runes
	// (nil when there are none): every query scans it with the same bounded
	// evaluation the base indexes use.
	delta     []entry
	deltaScan *search.Linear
}

// tombstones returns the number of deleted base elements in this snapshot.
func (st *state) tombstones() int {
	n := 0
	for _, w := range st.tombs {
		n += bits.OnesCount64(w)
	}
	return n
}

// live returns the number of live elements in this snapshot.
func (st *state) live() int {
	return len(st.baseIDs) - st.tombstones() + len(st.delta)
}

// shard is one partition: an atomically swapped immutable state plus the
// deletion ledger, the mutation lock and compaction bookkeeping.
type shard struct {
	idx   int
	state atomic.Pointer[state]
	// mu serialises mutations, the compaction swap and a saver's capture;
	// queries never take it.
	mu sync.Mutex
	// dead is the shard's deletion ledger, guarded by mu: every ID ever
	// deleted from this shard, base or delta. It grows in place, so a
	// delete costs the same however many came before it, and it is what
	// keeps a deleted ID from being deleted twice or brought back by a
	// late AddWithID — also once its delta entry, or its base element
	// after a compaction, is gone.
	dead map[uint64]struct{}
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

// MaxID is the largest element ID a Set accepts. The allocator holds one
// past the largest ID minted, so 2^64−1 would wrap it to 0, below every
// live ID.
const MaxID uint64 = math.MaxUint64 - 1

// NewFromElements builds a Set from elements carrying explicit global IDs —
// the constructor the remote shard transport uses to seed a replica with
// its slice of a cluster corpus (IDs are minted by the coordinator, so they
// are arbitrary here; placement inside the set is still ID mod shards).
// labelled is explicit because an empty or unlabelled-looking slice must
// still be able to declare a labelled corpus. Duplicate IDs and IDs past
// MaxID are rejected. The set's next minted ID starts past the largest ID
// present.
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
		if e.ID > MaxID {
			return nil, fmt.Errorf("shard: element ID %d exceeds MaxID", e.ID)
		}
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
		s.shards[i] = &shard{idx: i, dead: map[uint64]struct{}{}}
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
// allocator advances past id, so later Add calls never collide. An ID past
// MaxID is refused (false) and leaves the allocator alone.
func (s *Set) AddWithID(id uint64, value string, label int) bool {
	if id > MaxID {
		return false
	}
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
// that are live or were ever deleted. It reports whether e was inserted.
func (s *Set) insert(e entry) bool {
	sh := s.shards[e.id%uint64(len(s.shards))]

	sh.mu.Lock()
	st := sh.state.Load()
	_, gone := sh.dead[e.id]
	_, inBase := st.baseByID[e.id]
	if gone || inBase || st.deltaIndex(e.id) >= 0 {
		sh.mu.Unlock()
		return false
	}
	sh.state.Store(st.withDelta(s.metric, slices.Concat(st.delta, []entry{e})))
	sh.mu.Unlock()

	s.adds.Add(1)
	s.maybeCompact(sh)
	return true
}

// Delete removes the element with the given ID, reporting whether it was
// live. The ID enters the shard's ledger; a base element gains a tombstone
// (space is reclaimed at the next compaction), and a delta entry is
// dropped outright.
func (s *Set) Delete(id uint64) bool {
	if id >= s.nextID.Load() {
		return false
	}
	sh := s.shards[id%uint64(len(s.shards))]

	sh.mu.Lock()
	st := sh.state.Load()
	var ns *state
	if _, gone := sh.dead[id]; !gone {
		if pos, ok := st.baseByID[id]; ok {
			ns = st.withTomb(pos)
		} else if i := st.deltaIndex(id); i >= 0 {
			ns = st.withDelta(s.metric, slices.Concat(st.delta[:i], st.delta[i+1:]))
		}
	}
	if ns == nil {
		sh.mu.Unlock()
		return false
	}
	sh.dead[id] = struct{}{}
	sh.state.Store(ns)
	sh.mu.Unlock()

	s.deletes.Add(1)
	s.maybeCompact(sh)
	return true
}

// deltaIndex returns the position of id in the delta, or -1.
func (st *state) deltaIndex(id uint64) int {
	return slices.IndexFunc(st.delta, func(e entry) bool { return e.id == id })
}

// withTomb returns a copy of st with base position pos tombstoned.
//
//ced:publish
func (st *state) withTomb(pos int) *state {
	ns := *st
	ns.tombs = search.NewMask(len(st.baseIDs))
	copy(ns.tombs, st.tombs)
	ns.tombs.Set(pos)
	return &ns
}

// withDelta returns a copy of st whose delta is entries, and a scanner over
// them. entries must be a new slice (slices.Concat always allocates one):
// a published delta is never appended to or edited in place.
//
//ced:publish
func (st *state) withDelta(m metric.Metric, entries []entry) *state {
	ns := *st
	ns.delta, ns.deltaScan = entries, nil
	if len(entries) > 0 {
		runes := make([][]rune, len(entries))
		for i, e := range entries {
			runes[i] = e.runes
		}
		ns.deltaScan = search.NewLinear(runes, m)
	}
	return &ns
}

// tombstone masks the base positions whose IDs are in dead: the
// tombstones of a freshly built or loaded base under the shard's ledger.
//
//ced:publish
func (st *state) tombstone(dead map[uint64]struct{}) {
	st.tombs = nil
	for pos, id := range st.baseIDs {
		if _, gone := dead[id]; !gone {
			continue
		}
		if st.tombs == nil {
			st.tombs = search.NewMask(len(st.baseIDs))
		}
		st.tombs.Set(pos)
	}
}

// maybeCompact schedules a background compaction when the shard's mutable
// overlay (delta entries plus tombstones) has outgrown the threshold and no
// compaction is already in flight.
func (s *Set) maybeCompact(sh *shard) {
	st := sh.state.Load()
	if len(st.delta)+st.tombstones() < s.threshold {
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
			if len(st.delta)+st.tombstones() == 0 {
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
// order first, then delta order) and swaps it in. Mutations that raced the
// rebuild carry over at the swap, under the shard lock: elements deleted
// during the build are in the ledger, so the new base tombstones them
// instead of resurrecting them, and entries added during the build are
// the current delta entries the new base lacks, which stay in its delta.
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
		if snap.tombs.Has(pos) {
			continue
		}
		strs = append(strs, snap.baseStrs[pos])
		ids = append(ids, id)
		if snap.baseLabels != nil {
			labels = append(labels, snap.baseLabels[pos])
		}
	}
	for _, e := range snap.delta {
		strs = append(strs, e.value)
		ids = append(ids, e.id)
		if s.labelled {
			labels = append(labels, e.label)
		}
	}
	if s.labelled && labels == nil {
		labels = []int{}
	}

	// The expensive part — index construction — runs outside the lock.
	ns := s.newBaseState(sh.idx, strs, ids, labels)

	sh.mu.Lock()
	ns.tombstone(sh.dead)
	var added []entry
	for _, e := range sh.state.Load().delta {
		if _, baked := ns.baseByID[e.id]; !baked {
			added = append(added, e)
		}
	}
	ns = ns.withDelta(s.metric, added)
	ns.epoch = sh.epoch.Load() + 1
	sh.state.Store(ns)
	sh.epoch.Add(1)
	sh.mu.Unlock()
	s.compactions.Add(1)
}
