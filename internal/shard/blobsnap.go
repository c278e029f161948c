package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ced/internal/blob"
	"ced/internal/pool"
	"ced/internal/search"
)

// A Set persists to a blob store (internal/blob). One save produces:
//
//	shards/<i>/base-e<epoch>-<sha12>   the shard's frozen base (index blob +
//	                                   corpus strings/IDs/labels); immutable,
//	                                   re-uploaded only when the shard's
//	                                   compaction epoch changed
//	shards/<i>/ovl-<sha12>             the shard's mutable overlay (sorted
//	                                   tombstones, dead-ID ledger, delta);
//	                                   content-addressed, re-uploaded only
//	                                   when its bytes changed
//	manifest/<seq, 16 digits>          the versioned manifest naming every
//	                                   object of one consistent snapshot,
//	                                   with per-object SHA-256; published
//	                                   LAST, so a save killed at any earlier
//	                                   point leaves the previous manifest —
//	                                   and the objects it references —
//	                                   fully intact
//
// Loaders walk manifests newest-first, skip torn or corrupt manifest
// envelopes (the one write that can tear on a non-atomic backend), and
// fail closed on any object whose bytes disagree with the manifest's
// digest: a valid manifest with a bad object is an integrity violation,
// never a silent partial load.

// envelopeVersion is the current version of the manifest and of the base
// and overlay objects. Loaders accept anything up to it and refuse newer
// ones explicitly, so an old binary pointed at a store written by newer
// software fails with a version error instead of misreading fields.
const envelopeVersion = 1

// ErrNoSnapshot reports a store that holds no manifest at all — nothing
// was ever saved there. Every other load failure (torn manifests only,
// corrupt objects, a too-new version, a metric or index mismatch, store
// I/O) is a different error.
var ErrNoSnapshot = errors.New("shard: store holds no snapshot")

// manifestMagic brands a manifest envelope so a loader can tell a torn or
// foreign object from a manifest before trusting gob with it.
const manifestMagic = "cedmanf1"

// manifestPrefix is the key prefix manifests live under; keys are the
// zero-padded decimal sequence number so lexicographic List order is
// publication order.
const manifestPrefix = "manifest/"

// gcKeepManifests is how many trailing manifests (and their objects) a
// successful save retains; older ones are garbage-collected. Two gives a
// concurrent cold-start loader a full manifest of slack.
const gcKeepManifests = 2

// ManifestShard names the objects one shard contributes to a snapshot.
type ManifestShard struct {
	// BaseKey/BaseSHA locate and authenticate the frozen base object; an
	// empty BaseKey means the shard's base corpus was empty.
	BaseKey string
	BaseSHA string
	// Epoch is the compaction epoch the base was captured at — the skip
	// condition for incremental saves.
	Epoch uint64
	// OverlayKey/OverlaySHA locate and authenticate the overlay object
	// (always present; an empty overlay still encodes).
	OverlayKey string
	OverlaySHA string
}

// Manifest is the root of one consistent snapshot in a blob store.
type Manifest struct {
	Version    int
	Seq        uint64
	MetricName string
	Algorithm  string
	Labelled   bool
	NextID     uint64
	Shards     []ManifestShard
}

// baseObj is the gob form of a shard's frozen base object. Kind names the
// base index algorithm; Index holds its search.Save snapshot when the
// algorithm has one (LAESA, BK-tree) and is empty otherwise — the
// loader then rebuilds the index from BaseStrs with the configured build
// function (cheap for linear, quadratic for aesa). The corpus strings are
// stored alongside the index snapshot (which embeds its own copy) so every
// kind loads the same way; snapshots trade that duplication for loaders
// that never compute a distance.
type baseObj struct {
	Version    int
	Kind       string
	Index      []byte
	BaseStrs   []string
	BaseIDs    []uint64
	BaseLabels []int
}

// ovlObj is the gob form of a shard's overlay object. All slices are
// sorted or in delta order, so encoding a given state is deterministic
// and the content hash doubles as a change detector. Dead is the shard's
// deletion ledger, so a reload keeps refusing to resurrect IDs whose delta
// entries are gone. Tombs repeats the base IDs among them: a loader derives
// the tombstones from Dead and fails closed on a Tombs entry they lack.
type ovlObj struct {
	Version int
	Tombs   []uint64
	Dead    []uint64
	Delta   []deltaSnap
}

// deltaSnap is one delta entry in the overlay object.
type deltaSnap struct {
	ID    uint64
	Value string
	Label int
}

// SaveStats reports what one incremental save actually moved.
type SaveStats struct {
	Seq           uint64 `json:"seq"`
	BasesUploaded int    `json:"bases_uploaded"`
	BasesSkipped  int    `json:"bases_skipped"`
	OvlsUploaded  int    `json:"ovls_uploaded"`
	OvlsSkipped   int    `json:"ovls_skipped"`
	BytesUploaded int64  `json:"bytes_uploaded"`
}

// Saver writes incremental snapshots of one Set into a blob store. It
// remembers the last manifest it published (or loaded, via Attach) and
// skips re-encoding any shard base whose compaction epoch is unchanged
// and re-uploading any overlay whose bytes are unchanged — sound because
// a base only changes at a compaction swap, which bumps the epoch carried
// inside the captured state, and overlay encoding is deterministic.
//
// A Saver assumes it is the store's only writer (the single-writer
// discipline the serving engine's single-flight enforces); Save itself is
// still safe to call concurrently.
type Saver struct {
	store blob.Store

	mu   sync.Mutex
	last *Manifest // last manifest this Saver published or attached
	seq  uint64    // floor for the next sequence; Save also lists the store
}

// NewSaver returns a Saver over store with no history: the first Save
// uploads every object, continuing the manifest sequence past whatever
// the store already holds. It never trusts pre-existing objects it did
// not write or load itself — epochs from a different process's corpus
// are not comparable.
func NewSaver(store blob.Store) *Saver {
	return &Saver{store: store}
}

// Attach primes the Saver with a manifest whose objects the in-memory Set
// was literally loaded from (LoadFromStore returns it), so the first Save
// after a cold start re-uploads only what changed since.
func (sv *Saver) Attach(m *Manifest) {
	sv.mu.Lock()
	sv.last, sv.seq = m, m.Seq
	sv.mu.Unlock()
}

// LastSeq returns the sequence number of the last manifest this Saver
// published or attached (0 if none yet).
func (sv *Saver) LastSeq() uint64 {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.seq
}

// manifestKey renders the key of the manifest with sequence seq.
func manifestKey(seq uint64) string {
	return fmt.Sprintf("%s%016d", manifestPrefix, seq)
}

// manifestSeq parses a manifest key back to its sequence number.
func manifestSeq(key string) (uint64, bool) {
	s := strings.TrimPrefix(key, manifestPrefix)
	if s == key {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Save captures s and publishes one consistent snapshot: per-shard
// objects first (only the changed ones), the manifest last. If any object
// upload fails the manifest is not published and the store still presents
// the previous snapshot in full. Returns what moved.
func (sv *Saver) Save(ctx context.Context, s *Set) (SaveStats, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()

	// Advance the sequence past every manifest already in the store, not
	// just this Saver's own: a fresh Saver over a store an earlier process
	// wrote (a server restarted without loading its snapshot) must continue
	// that sequence, never overwrite a manifest it did not publish.
	keys, err := sv.store.List(ctx, manifestPrefix)
	if err != nil {
		return SaveStats{}, fmt.Errorf("shard: listing manifests: %w", err)
	}
	for _, k := range keys {
		if n, ok := manifestSeq(k); ok && n > sv.seq {
			sv.seq = n
		}
	}

	// Capture every shard first (its state, with the epoch riding inside,
	// and its ledger), then the ID allocator: an Add racing the capture may
	// have published an ID >= an earlier-sampled nextID into a captured
	// state, and a reload would then mint that ID twice. Sampling
	// afterwards keeps the saved allocator beyond every saved element (a
	// gap is harmless — IDs are never reused).
	states := make([]*state, len(s.shards))
	deads := make([][]uint64, len(s.shards))
	for i, sh := range s.shards {
		states[i], deads[i] = sh.capture()
	}
	nextID := s.nextID.Load()

	m := &Manifest{
		Version:    envelopeVersion,
		Seq:        sv.seq + 1,
		MetricName: s.metric.Name(),
		Algorithm:  s.algorithm,
		Labelled:   s.labelled,
		NextID:     nextID,
		Shards:     make([]ManifestShard, len(states)),
	}
	var stats SaveStats
	stats.Seq = m.Seq

	var statsMu sync.Mutex
	errs := make([]error, len(states))
	pool.Fan(len(states), s.workers, func(i int) {
		ms, up, err := sv.saveShard(ctx, i, states[i], deads[i])
		if err != nil {
			errs[i] = err
			return
		}
		m.Shards[i] = ms
		statsMu.Lock()
		stats.BasesUploaded += up.BasesUploaded
		stats.BasesSkipped += up.BasesSkipped
		stats.OvlsUploaded += up.OvlsUploaded
		stats.OvlsSkipped += up.OvlsSkipped
		stats.BytesUploaded += up.BytesUploaded
		statsMu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}

	// Publish the manifest last: this is the commit point.
	env := sealManifest(m)
	if err := sv.store.Put(ctx, manifestKey(m.Seq), env); err != nil {
		return stats, fmt.Errorf("shard: publishing manifest %d: %w", m.Seq, err)
	}
	stats.BytesUploaded += int64(len(env))
	sv.last, sv.seq = m, m.Seq

	// Best-effort GC of snapshots older than the retention window. A
	// failure here never fails the save — the new snapshot is already
	// durable — and orphans are collected by a later pass.
	sv.gc(ctx, m)
	return stats, nil
}

// capture returns the shard's state and the IDs in its ledger, read
// together under the shard lock so that both describe one instant.
func (sh *shard) capture() (*state, []uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.state.Load(), slices.Collect(maps.Keys(sh.dead))
}

// saveShard uploads (or skips) one shard's base and overlay objects and
// returns its manifest entry; dead is the shard's ledger, in any order.
func (sv *Saver) saveShard(ctx context.Context, i int, st *state, dead []uint64) (ManifestShard, SaveStats, error) {
	var up SaveStats
	ms := ManifestShard{Epoch: st.epoch}

	// last is only read under sv.mu, which Save holds across the fan-out;
	// the fan workers only read it.
	var prev *ManifestShard
	if sv.last != nil && i < len(sv.last.Shards) {
		prev = &sv.last.Shards[i]
	}

	if len(st.baseStrs) > 0 {
		if prev != nil && prev.BaseKey != "" && prev.Epoch == st.epoch {
			// Epoch unchanged ⇒ the base (index + corpus arrays) is the
			// very object the last manifest points at. Skipping avoids
			// the expensive re-encode, not just the upload.
			ms.BaseKey, ms.BaseSHA = prev.BaseKey, prev.BaseSHA
			up.BasesSkipped++
		} else {
			b, err := encodeBase(i, st)
			if err != nil {
				return ms, up, err
			}
			sum := sha256.Sum256(b)
			sha := hex.EncodeToString(sum[:])
			ms.BaseKey = fmt.Sprintf("shards/%d/base-e%d-%s", i, st.epoch, sha[:12])
			ms.BaseSHA = sha
			if err := sv.store.Put(ctx, ms.BaseKey, b); err != nil {
				return ms, up, fmt.Errorf("shard: uploading shard %d base: %w", i, err)
			}
			up.BasesUploaded++
			up.BytesUploaded += int64(len(b))
		}
	}

	b, err := encodeOverlay(i, st, dead)
	if err != nil {
		return ms, up, err
	}
	sum := sha256.Sum256(b)
	sha := hex.EncodeToString(sum[:])
	ms.OverlayKey = fmt.Sprintf("shards/%d/ovl-%s", i, sha[:12])
	ms.OverlaySHA = sha
	if prev != nil && prev.OverlaySHA == sha {
		up.OvlsSkipped++
	} else {
		if err := sv.store.Put(ctx, ms.OverlayKey, b); err != nil {
			return ms, up, fmt.Errorf("shard: uploading shard %d overlay: %w", i, err)
		}
		up.OvlsUploaded++
		up.BytesUploaded += int64(len(b))
	}
	return ms, up, nil
}

// encodeBase renders a shard's frozen base — its index snapshot, when the
// algorithm has one, plus the corpus arrays — as a base object.
func encodeBase(i int, st *state) ([]byte, error) {
	bo := baseObj{
		Version:    envelopeVersion,
		BaseStrs:   st.baseStrs,
		BaseIDs:    st.baseIDs,
		BaseLabels: st.baseLabels,
	}
	if st.base != nil {
		bo.Kind = st.base.Name()
		var ix bytes.Buffer
		switch err := search.Save(&ix, st.base); {
		case err == nil:
			bo.Index = ix.Bytes()
		case !errors.Is(err, search.ErrNoCodec):
			return nil, fmt.Errorf("shard: saving shard %d index: %w", i, err)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(bo); err != nil {
		return nil, fmt.Errorf("shard: encoding shard %d base: %w", i, err)
	}
	return buf.Bytes(), nil
}

// encodeOverlay renders a shard's mutable overlay deterministically:
// tombstones and dead IDs sorted, the delta in insertion order.
func encodeOverlay(i int, st *state, dead []uint64) ([]byte, error) {
	ov := ovlObj{Version: envelopeVersion, Dead: dead}
	for pos, id := range st.baseIDs {
		if st.tombs.Has(pos) {
			ov.Tombs = append(ov.Tombs, id)
		}
	}
	slices.Sort(ov.Tombs)
	slices.Sort(ov.Dead)
	for _, e := range st.delta {
		ov.Delta = append(ov.Delta, deltaSnap{ID: e.id, Value: e.value, Label: e.label})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ov); err != nil {
		return nil, fmt.Errorf("shard: encoding shard %d overlay: %w", i, err)
	}
	return buf.Bytes(), nil
}

// gc deletes manifests older than the retention window, then any shard
// object no retained manifest references — in that order, so a crash
// mid-GC can strand an unreferenced object (harmless, re-collected later)
// but never a manifest whose objects are gone.
func (sv *Saver) gc(ctx context.Context, newest *Manifest) {
	keys, err := sv.store.List(ctx, manifestPrefix)
	if err != nil {
		return
	}
	keep := make(map[string]struct{})
	addRefs := func(m *Manifest) {
		for _, ms := range m.Shards {
			if ms.BaseKey != "" {
				keep[ms.BaseKey] = struct{}{}
			}
			keep[ms.OverlayKey] = struct{}{}
		}
	}
	addRefs(newest)
	cutoff := uint64(0)
	if newest.Seq > gcKeepManifests-1 {
		cutoff = newest.Seq - (gcKeepManifests - 1)
	}
	for _, k := range keys {
		seq, ok := manifestSeq(k)
		if !ok {
			continue
		}
		if seq >= cutoff {
			if seq != newest.Seq {
				if m, err := fetchManifest(ctx, sv.store, k); err == nil {
					addRefs(m)
				}
			}
			continue
		}
		// Retained manifests' refs are all collected before any object
		// delete below; stale manifests go first so no surviving manifest
		// ever dangles.
		if err := sv.store.Delete(ctx, k); err != nil {
			return
		}
	}
	objs, err := sv.store.List(ctx, "shards/")
	if err != nil {
		return
	}
	for _, k := range objs {
		if _, ok := keep[k]; !ok {
			if err := sv.store.Delete(ctx, k); err != nil {
				return
			}
		}
	}
}

// sealManifest wraps the gob payload in the manifest envelope:
// magic (8 bytes) ‖ sha256(payload) (32 bytes) ‖ payload.
func sealManifest(m *Manifest) []byte {
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	buf.Write(make([]byte, sha256.Size))
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		// Encoding an in-memory manifest of plain slices cannot fail
		// other than by OOM; treat it as such.
		panic(fmt.Sprintf("shard: encoding manifest: %v", err))
	}
	b := buf.Bytes()
	sum := sha256.Sum256(b[len(manifestMagic)+sha256.Size:])
	copy(b[len(manifestMagic):], sum[:])
	return b
}

// openManifest validates an envelope and decodes the manifest. A short,
// mis-branded or digest-mismatched envelope is a torn manifest (the
// loader falls back to an older one); a well-formed envelope with a
// too-new version is a hard error.
func openManifest(b []byte) (*Manifest, error) {
	hdr := len(manifestMagic) + sha256.Size
	if len(b) < hdr || string(b[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("shard: not a manifest envelope")
	}
	payload := b[hdr:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], b[len(manifestMagic):hdr]) {
		return nil, fmt.Errorf("shard: manifest digest mismatch (torn write)")
	}
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	return &m, nil
}

// errTooNew marks a manifest written by newer software — grounds for a
// hard failure, never a silent fallback to an older snapshot.
type errTooNew struct{ version int }

func (e *errTooNew) Error() string {
	return fmt.Sprintf("shard: manifest version %d is newer than this binary supports (max %d)",
		e.version, envelopeVersion)
}

// fetchManifest reads and opens the manifest at key.
func fetchManifest(ctx context.Context, store blob.Store, key string) (*Manifest, error) {
	b, err := store.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	m, err := openManifest(b)
	if err != nil {
		return nil, err
	}
	if m.Version > envelopeVersion {
		return nil, &errTooNew{version: m.Version}
	}
	return m, nil
}

// LoadFromStore restores a Set from the newest loadable snapshot in
// store. Manifests are tried newest-first: a torn or corrupt manifest
// envelope — the only write a crashed save can tear — falls back to the
// previous one, but a valid manifest referencing a missing or
// digest-mismatched object fails closed (that is corruption, not a crash
// artifact), as does a manifest version newer than this binary. A store
// with no manifest at all fails with ErrNoSnapshot. The shard count comes
// from the manifest; cfg supplies the metric, build function, worker
// budget and compaction threshold, and the metric and algorithm must match
// the saved set's — index snapshots computed under one distance are
// unsound under another. The returned Manifest is what a Saver should
// Attach so its first save is incremental.
func LoadFromStore(ctx context.Context, store blob.Store, cfg Config) (*Set, *Manifest, error) {
	if cfg.Metric == nil {
		return nil, nil, fmt.Errorf("shard: nil metric")
	}
	if cfg.Build == nil {
		return nil, nil, fmt.Errorf("shard: nil build function")
	}
	keys, err := store.List(ctx, manifestPrefix)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: listing manifests: %w", err)
	}
	var m *Manifest
	var lastErr error
	for j := len(keys) - 1; j >= 0; j-- {
		if _, ok := manifestSeq(keys[j]); !ok {
			continue
		}
		cand, err := fetchManifest(ctx, store, keys[j])
		if err != nil {
			var tooNew *errTooNew
			if errors.As(err, &tooNew) {
				return nil, nil, err
			}
			lastErr = err
			continue
		}
		m = cand
		break
	}
	if m == nil {
		if lastErr != nil {
			return nil, nil, fmt.Errorf("shard: no loadable manifest: %w", lastErr)
		}
		return nil, nil, ErrNoSnapshot
	}

	if m.MetricName != cfg.Metric.Name() {
		return nil, nil, fmt.Errorf("shard: snapshot was saved with metric %q, loader supplied %q",
			m.MetricName, cfg.Metric.Name())
	}
	if cfg.Algorithm != "" && m.Algorithm != "" && cfg.Algorithm != m.Algorithm {
		return nil, nil, fmt.Errorf("shard: snapshot was saved with index %q, loader configured %q",
			m.Algorithm, cfg.Algorithm)
	}
	if len(m.Shards) == 0 {
		return nil, nil, fmt.Errorf("shard: corrupt manifest: no shards")
	}
	cfg.Shards = len(m.Shards)
	if cfg.Algorithm == "" {
		cfg.Algorithm = m.Algorithm
	}
	s := newSet(cfg, m.Labelled)
	s.nextID.Store(m.NextID)

	states := make([]*state, len(m.Shards))
	errs := make([]error, len(m.Shards))
	pool.Fan(len(m.Shards), cfg.Workers, func(i int) {
		states[i], errs[i] = s.loadShardFromStore(ctx, store, i, m.Shards[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for i, st := range states {
		s.shards[i].state.Store(st)
		s.shards[i].epoch.Store(m.Shards[i].Epoch)
	}
	return s, m, nil
}

// loadShardFromStore fetches, verifies and reassembles one shard.
func (s *Set) loadShardFromStore(ctx context.Context, store blob.Store, i int, ms ManifestShard) (*state, error) {
	var bo baseObj
	if ms.BaseKey != "" {
		b, err := fetchVerified(ctx, store, ms.BaseKey, ms.BaseSHA)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d base: %w", i, err)
		}
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&bo); err != nil {
			return nil, fmt.Errorf("shard: decoding shard %d base: %w", i, err)
		}
		if bo.Version > envelopeVersion {
			return nil, fmt.Errorf("shard: shard %d base version %d is newer than this binary supports (max %d)",
				i, bo.Version, envelopeVersion)
		}
	}
	b, err := fetchVerified(ctx, store, ms.OverlayKey, ms.OverlaySHA)
	if err != nil {
		return nil, fmt.Errorf("shard: shard %d overlay: %w", i, err)
	}
	var ov ovlObj
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ov); err != nil {
		return nil, fmt.Errorf("shard: decoding shard %d overlay: %w", i, err)
	}
	if ov.Version > envelopeVersion {
		return nil, fmt.Errorf("shard: shard %d overlay version %d is newer than this binary supports (max %d)",
			i, ov.Version, envelopeVersion)
	}
	return s.loadShardState(i, ms.Epoch, bo, ov)
}

// loadShardState reconstructs one shard's state from its base and overlay
// objects, and fills the shard's ledger from the overlay.
//
//ced:publish
func (s *Set) loadShardState(i int, epoch uint64, bo baseObj, ov ovlObj) (*state, error) {
	if len(bo.BaseIDs) != len(bo.BaseStrs) {
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d has %d base ids for %d strings",
			i, len(bo.BaseIDs), len(bo.BaseStrs))
	}
	if s.labelled && len(bo.BaseLabels) != len(bo.BaseStrs) {
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d has %d labels for %d strings",
			i, len(bo.BaseLabels), len(bo.BaseStrs))
	}
	st := &state{
		baseStrs:   bo.BaseStrs,
		baseIDs:    bo.BaseIDs,
		baseLabels: bo.BaseLabels,
		baseByID:   make(map[uint64]int, len(bo.BaseIDs)),
		epoch:      epoch,
	}
	n := uint64(len(s.shards))
	for pos, id := range bo.BaseIDs {
		// IDs route to their shard by id mod N; a misplaced ID would be
		// queryable but never deletable (Delete would look in the wrong
		// shard forever).
		if id%n != uint64(i) {
			return nil, fmt.Errorf("shard: corrupt snapshot: ID %d in shard %d of %d (want shard %d)", id, i, n, id%n)
		}
		st.baseByID[id] = pos
	}
	if len(bo.BaseStrs) > 0 {
		base, err := s.loadBase(i, bo)
		if err != nil {
			return nil, err
		}
		st.base = base
	}
	dead := s.shards[i].dead
	for _, id := range ov.Dead {
		dead[id] = struct{}{}
	}
	st.tombstone(dead)
	for _, id := range ov.Tombs {
		if pos, ok := st.baseByID[id]; !ok || !st.tombs.Has(pos) {
			return nil, fmt.Errorf("shard: corrupt snapshot: shard %d tombstone %d is not a deleted base element", i, id)
		}
	}
	delta := make([]entry, len(ov.Delta))
	for j, d := range ov.Delta {
		if d.ID%n != uint64(i) {
			return nil, fmt.Errorf("shard: corrupt snapshot: delta ID %d in shard %d of %d (want shard %d)", d.ID, i, n, d.ID%n)
		}
		delta[j] = entry{id: d.ID, value: d.Value, runes: []rune(d.Value), label: d.Label}
	}
	return st.withDelta(s.metric, delta), nil
}

// loadBase restores a shard's base index from its embedded snapshot, or
// rebuilds it from the corpus when the algorithm has no snapshot form.
func (s *Set) loadBase(i int, bo baseObj) (search.Index, error) {
	if len(bo.Index) == 0 {
		runes := make([][]rune, len(bo.BaseStrs))
		for j, v := range bo.BaseStrs {
			runes[j] = []rune(v)
		}
		return s.build(i, runes), nil
	}
	base, err := search.Load(bo.Kind, bytes.NewReader(bo.Index), s.metric)
	if errors.Is(err, search.ErrNoCodec) {
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d has an index blob for kind %q", i, bo.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
	}
	if base.Size() != len(bo.BaseStrs) {
		return nil, fmt.Errorf("shard: corrupt snapshot: shard %d index holds %d elements for %d strings",
			i, base.Size(), len(bo.BaseStrs))
	}
	return base, nil
}

// fetchVerified reads an object and fails closed unless its SHA-256
// matches the manifest's record exactly.
func fetchVerified(ctx context.Context, store blob.Store, key, wantSHA string) ([]byte, error) {
	b, err := store.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		return nil, fmt.Errorf("object %s sha256 %s does not match manifest %s", key, got, wantSHA)
	}
	return b, nil
}
