package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"ced/internal/search"
)

// deltaSnap is one delta entry in the wire form.
type deltaSnap struct {
	ID    uint64
	Value string
	Label int
}

// shardSnap is one shard in the wire form. Kind names the base index
// algorithm; Index holds its gob snapshot when the algorithm supports one
// (LAESA, VP-tree, BK-tree), and is empty otherwise — Load then rebuilds
// the index from BaseStrs with the configured build function (cheap for
// linear and trie, quadratic for aesa).
type shardSnap struct {
	Kind       string
	Index      []byte
	BaseStrs   []string
	BaseIDs    []uint64
	BaseLabels []int
	Tombs      []uint64
	// Dead is the full deleted-ID ledger (tombs plus delta deletions), so a
	// reload keeps refusing to resurrect IDs whose delta entries are gone.
	// Absent in older snapshots; Load falls back to Tombs alone.
	Dead  []uint64
	Delta []deltaSnap
	Epoch uint64
}

// envelopeVersion is the current wire version of setSnapshot (and of the
// blob-store manifest). Version 0 is the pre-versioned PR-5-era envelope,
// which decodes identically (gob omits zero fields); loaders accept
// anything up to the current version and refuse newer ones explicitly,
// so an old binary pointed at a store written by newer software fails
// with a version error instead of misreading fields.
const envelopeVersion = 1

// setSnapshot is the gob envelope for a whole Set: every shard's base index
// plus its mutable overlay, so a reload resumes exactly where the save left
// off — tombstones, deltas, ID allocator and all.
type setSnapshot struct {
	Version    int
	MetricName string
	Algorithm  string
	Labelled   bool
	NextID     uint64
	Shards     []shardSnap
}

// Save writes the whole set — per shard: the base index (as a gob index
// snapshot when the algorithm supports one), the live delta and the
// tombstones — to w. Each shard is captured at its own atomic snapshot;
// concurrent mutations land either wholly in or wholly out of the saved
// state, per shard. The base corpus strings are stored alongside the index
// snapshot (which embeds its own copy) so shards can be rebuilt even
// without one; snapshots trade that duplication for loaders that never
// compute a distance.
func (s *Set) Save(w io.Writer) error {
	snap := setSnapshot{
		Version:    envelopeVersion,
		MetricName: s.metric.Name(),
		Algorithm:  s.algorithm,
		Labelled:   s.labelled,
		Shards:     make([]shardSnap, len(s.shards)),
	}
	for i, sh := range s.shards {
		ss, err := captureShard(i, sh.state.Load())
		if err != nil {
			return err
		}
		snap.Shards[i] = ss
	}
	// Read the ID allocator only after every shard state is captured: an
	// Add racing the capture may have published an ID >= an
	// earlier-sampled nextID into a captured state, and a reload would
	// then mint that ID twice. Sampling afterwards guarantees the saved
	// allocator is beyond every saved element (a gap is harmless — IDs
	// are never reused).
	snap.NextID = s.nextID.Load()
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("shard: saving set: %w", err)
	}
	return nil
}

// captureShard renders one atomically captured shard state into wire form.
// The tombstone, dead-ID and delta slices are sorted (or in delta order),
// so the encoding of a given state is deterministic — the property the
// incremental saver's content-hash skip for overlays rests on.
func captureShard(i int, st *state) (shardSnap, error) {
	ss := shardSnap{
		BaseStrs:   st.baseStrs,
		BaseIDs:    st.baseIDs,
		BaseLabels: st.baseLabels,
		Epoch:      st.epoch,
	}
	if st.base != nil {
		ss.Kind = st.base.Name()
		if p, ok := st.base.(search.Persister); ok {
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				return shardSnap{}, fmt.Errorf("shard: saving shard %d: %w", i, err)
			}
			ss.Index = buf.Bytes()
		}
	}
	for id := range st.tombs {
		ss.Tombs = append(ss.Tombs, id)
	}
	sort.Slice(ss.Tombs, func(a, b int) bool { return ss.Tombs[a] < ss.Tombs[b] })
	for id := range st.dead {
		ss.Dead = append(ss.Dead, id)
	}
	sort.Slice(ss.Dead, func(a, b int) bool { return ss.Dead[a] < ss.Dead[b] })
	for j, id := range st.deltaIDs {
		ss.Delta = append(ss.Delta, deltaSnap{ID: id, Value: st.deltaStrs[j], Label: st.deltaLabels[j]})
	}
	return ss, nil
}

// Load restores a set written by Save. The shard count comes from the
// snapshot (IDs are placed by ID mod shards, so it cannot change on
// reload); cfg supplies the metric, build function, worker budget and
// compaction threshold. The metric and algorithm must match the saved
// set's — index snapshots computed under one distance are unsound under
// another, exactly like search.LoadLAESA.
func Load(r io.Reader, cfg Config) (*Set, error) {
	if cfg.Metric == nil {
		return nil, fmt.Errorf("shard: nil metric")
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: nil build function")
	}
	var snap setSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("shard: loading set: %w", err)
	}
	if snap.Version > envelopeVersion {
		return nil, fmt.Errorf("shard: snapshot version %d is newer than this binary supports (max %d)",
			snap.Version, envelopeVersion)
	}
	if snap.MetricName != cfg.Metric.Name() {
		return nil, fmt.Errorf("shard: snapshot was saved with metric %q, loader supplied %q",
			snap.MetricName, cfg.Metric.Name())
	}
	if cfg.Algorithm != "" && snap.Algorithm != "" && cfg.Algorithm != snap.Algorithm {
		return nil, fmt.Errorf("shard: snapshot was saved with index %q, loader configured %q",
			snap.Algorithm, cfg.Algorithm)
	}
	if len(snap.Shards) == 0 {
		return nil, fmt.Errorf("shard: corrupt snapshot: no shards")
	}
	cfg.Shards = len(snap.Shards)
	if cfg.Algorithm == "" {
		cfg.Algorithm = snap.Algorithm
	}
	s := newSet(cfg, snap.Labelled)
	s.nextID.Store(snap.NextID)
	for i, ss := range snap.Shards {
		st, err := s.loadShardState(i, ss)
		if err != nil {
			return nil, err
		}
		s.shards[i].state.Store(st)
		s.shards[i].epoch.Store(ss.Epoch)
	}
	return s, nil
}

// loadShardState reconstructs one shard's state from its wire form.
//
//ced:publish
func (s *Set) loadShardState(i int, ss shardSnap) (*state, error) {
	if len(ss.BaseIDs) != len(ss.BaseStrs) {
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d has %d base ids for %d strings",
			i, len(ss.BaseIDs), len(ss.BaseStrs))
	}
	if s.labelled && len(ss.BaseLabels) != len(ss.BaseStrs) {
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d has %d labels for %d strings",
			i, len(ss.BaseLabels), len(ss.BaseStrs))
	}
	st := &state{
		baseStrs:   ss.BaseStrs,
		baseIDs:    ss.BaseIDs,
		baseLabels: ss.BaseLabels,
		baseByID:   make(map[uint64]int, len(ss.BaseIDs)),
		tombs:      map[uint64]struct{}{},
		dead:       make(map[uint64]struct{}, len(ss.Dead)),
		epoch:      ss.Epoch,
	}
	n := uint64(len(s.shards))
	for pos, id := range ss.BaseIDs {
		// IDs route to their shard by id mod N; a misplaced ID would be
		// queryable but never deletable (Delete would look in the wrong
		// shard forever).
		if id%n != uint64(i) {
			return nil, fmt.Errorf("shard: corrupt snapshot: ID %d in shard %d of %d (want shard %d)", id, i, n, id%n)
		}
		st.baseByID[id] = pos
	}
	if len(ss.BaseStrs) > 0 {
		base, err := s.loadBase(i, ss)
		if err != nil {
			return nil, err
		}
		st.base = base
	}
	for _, id := range ss.Tombs {
		if _, ok := st.baseByID[id]; !ok {
			return nil, fmt.Errorf("shard: corrupt snapshot: shard %d tombstone %d not in base", i, id)
		}
		st.tombs[id] = struct{}{}
		st.dead[id] = struct{}{} // older snapshots have no Dead list
	}
	for _, id := range ss.Dead {
		st.dead[id] = struct{}{}
	}
	for _, d := range ss.Delta {
		if d.ID%n != uint64(i) {
			return nil, fmt.Errorf("shard: corrupt snapshot: delta ID %d in shard %d of %d (want shard %d)", d.ID, i, n, d.ID%n)
		}
		st.appendDelta(s.metric, entry{id: d.ID, value: d.Value, runes: []rune(d.Value), label: d.Label})
	}
	return st, nil
}

// loadBase restores a shard's base index from its embedded snapshot, or
// rebuilds it from the corpus when the algorithm has no serialised form.
func (s *Set) loadBase(i int, ss shardSnap) (search.Index, error) {
	if len(ss.Index) == 0 {
		runes := make([][]rune, len(ss.BaseStrs))
		for j, v := range ss.BaseStrs {
			runes[j] = []rune(v)
		}
		return s.build(i, runes), nil
	}
	r := bytes.NewReader(ss.Index)
	var (
		base search.Index
		err  error
	)
	switch ss.Kind {
	case "laesa":
		base, err = search.LoadLAESA(r, s.metric)
	case "vptree":
		base, err = search.LoadVPTree(r, s.metric)
	case "bktree":
		base, err = search.LoadBKTree(r, s.metric)
	default:
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d has an index blob for kind %q", i, ss.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
	}
	if base.Size() != len(ss.BaseStrs) {
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d index holds %d elements for %d strings",
			i, base.Size(), len(ss.BaseStrs))
	}
	return base, nil
}
