package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ced/internal/blob"
	"ced/internal/metric"
)

// storeCfg is the Config the blob-snapshot tests load with.
func storeCfg(m metric.Metric) Config {
	return Config{
		Metric:    m,
		Build:     testBuilder(m, 8, 42),
		Algorithm: "laesa",
		Workers:   2,
	}
}

// answersOf captures the query answers the differential compares: k-NN
// IDs+distances for a few probes, a radius result, and a size.
func answersOf(s *Set, probes []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "size=%d next=%d\n", s.Size(), s.NextID())
	for _, p := range probes {
		q := []rune(p)
		hits, _ := knn(s, q, 3)
		for _, h := range hits {
			fmt.Fprintf(&b, "knn %s %d %.17g\n", p, h.ID, h.Distance)
		}
		rhits, _, err := radius(s, q, 0.5)
		if err == nil {
			for _, h := range rhits {
				fmt.Fprintf(&b, "rad %s %d %.17g\n", p, h.ID, h.Distance)
			}
		}
		if s.Labelled() {
			if h, _, err := classify(s, q); err == nil {
				fmt.Fprintf(&b, "cls %s %d %d %.17g\n", p, h.ID, h.Label, h.Distance)
			}
		}
	}
	return b.String()
}

var snapProbes = []string{"casa", "gato", "plato", "queso"}

func TestBlobSaveLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 4)
	s.Add("nuevo", 0)
	s.Delete(2)

	store := blob.NewMemStore()
	sv := NewSaver(store)
	stats, err := sv.Save(ctx, s)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if stats.Seq != 1 || stats.BasesUploaded != 4 || stats.OvlsUploaded != 4 {
		t.Fatalf("first save stats = %+v, want seq 1, 4 bases, 4 overlays", stats)
	}
	got, man, err := LoadFromStore(ctx, store, storeCfg(m))
	if err != nil {
		t.Fatalf("LoadFromStore: %v", err)
	}
	if man.Seq != 1 {
		t.Fatalf("loaded manifest seq = %d", man.Seq)
	}
	if want, have := answersOf(s, snapProbes), answersOf(got, snapProbes); want != have {
		t.Fatalf("loaded set answers differ:\nsaved:\n%s\nloaded:\n%s", want, have)
	}
	// The dead-ID ledger must survive: the deleted ID stays dead.
	if got.AddWithID(2, "resurrect", 0) {
		t.Fatal("deleted ID resurrected after blob-store reload")
	}
}

func TestBlobSaveIncrementalSkips(t *testing.T) {
	ctx := context.Background()
	s := newTestSet(t, unitCorpus, nil, 4)
	mem := blob.NewMemStore()
	fs := blob.NewFaultStore(mem)
	sv := NewSaver(fs)

	if _, err := sv.Save(ctx, s); err != nil {
		t.Fatal(err)
	}

	// No mutations at all: nothing but the manifest moves.
	fs.ResetCounters()
	stats, err := sv.Save(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BasesUploaded != 0 || stats.OvlsUploaded != 0 || stats.BasesSkipped != 4 || stats.OvlsSkipped != 4 {
		t.Fatalf("idle save stats = %+v, want all skipped", stats)
	}
	for _, k := range fs.PutKeys() {
		if !strings.HasPrefix(k, "manifest/") {
			t.Fatalf("idle save uploaded %s", k)
		}
	}

	// One Add dirties exactly one shard's overlay; no base changes.
	id := s.Add("burrito", 0)
	dirty := int(id % 4)
	fs.ResetCounters()
	stats, err = sv.Save(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BasesUploaded != 0 || stats.OvlsUploaded != 1 {
		t.Fatalf("post-add save stats = %+v, want 1 overlay only", stats)
	}
	wantPrefix := fmt.Sprintf("shards/%d/ovl-", dirty)
	var sawOvl bool
	for _, k := range fs.PutKeys() {
		switch {
		case strings.HasPrefix(k, "manifest/"):
		case strings.HasPrefix(k, wantPrefix):
			sawOvl = true
		default:
			t.Fatalf("post-add save uploaded unexpected %s", k)
		}
	}
	if !sawOvl {
		t.Fatalf("post-add save never uploaded %s*", wantPrefix)
	}

	// Compacting the dirty shard bumps its epoch: exactly one base moves.
	s.Compact()
	fs.ResetCounters()
	stats, err = sv.Save(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BasesUploaded != 1 || stats.BasesSkipped != 3 {
		t.Fatalf("post-compact save stats = %+v, want exactly 1 base uploaded", stats)
	}
	for _, k := range fs.PutKeys() {
		if strings.HasPrefix(k, "shards/") && strings.Contains(k, "/base-") &&
			!strings.HasPrefix(k, fmt.Sprintf("shards/%d/", dirty)) {
			t.Fatalf("post-compact save re-uploaded clean base %s", k)
		}
	}
}

func TestBlobLoadFailsClosedOnCorruptObject(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 2)
	store := blob.NewMemStore()
	sv := NewSaver(store)
	if _, err := sv.Save(ctx, s); err != nil {
		t.Fatal(err)
	}

	keys, _ := store.List(ctx, "shards/")
	for _, k := range keys {
		c := store.Clone()
		if !c.Corrupt(k, c.Size(k)/2) {
			t.Fatalf("corrupting %s", k)
		}
		if _, _, err := LoadFromStore(ctx, c, storeCfg(m)); err == nil {
			t.Fatalf("load succeeded with corrupt object %s", k)
		}
		// Missing object: also a hard failure, not a fallback.
		c2 := store.Clone()
		if err := c2.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadFromStore(ctx, c2, storeCfg(m)); err == nil {
			t.Fatalf("load succeeded with missing object %s", k)
		}
	}
}

func TestBlobLoadFallsBackPastTornManifest(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 2)
	store := blob.NewMemStore()
	sv := NewSaver(store)
	if _, err := sv.Save(ctx, s); err != nil {
		t.Fatal(err)
	}
	want := answersOf(s, snapProbes)
	s.Add("extra", 0)
	if _, err := sv.Save(ctx, s); err != nil {
		t.Fatal(err)
	}

	// Tear the newest manifest: the loader must land on snapshot 1.
	if !store.Corrupt(manifestKey(2), store.Size(manifestKey(2))/3) {
		t.Fatal("corrupting manifest 2")
	}
	got, man, err := LoadFromStore(ctx, store, storeCfg(m))
	if err != nil {
		t.Fatalf("LoadFromStore past torn manifest: %v", err)
	}
	if man.Seq != 1 {
		t.Fatalf("fell back to seq %d, want 1", man.Seq)
	}
	if have := answersOf(got, snapProbes); have != want {
		t.Fatalf("fallback snapshot answers differ:\nwant:\n%s\ngot:\n%s", want, have)
	}

	// Tear both: nothing loadable, clean error.
	store.Corrupt(manifestKey(1), 4)
	if _, _, err := LoadFromStore(ctx, store, storeCfg(m)); err == nil {
		t.Fatal("load succeeded with every manifest torn")
	}
}

func TestBlobManifestTooNewRejected(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 2)
	store := blob.NewMemStore()
	sv := NewSaver(store)
	if _, err := sv.Save(ctx, s); err != nil {
		t.Fatal(err)
	}
	// Republish the manifest claiming a future version: hard failure, no
	// silent fallback to an older snapshot.
	man, err := fetchManifest(ctx, store, manifestKey(1))
	if err != nil {
		t.Fatal(err)
	}
	man.Version = envelopeVersion + 1
	man.Seq = 2
	if err := blob.PutBytes(ctx, store, manifestKey(2), sealManifest(man)); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadFromStore(ctx, store, storeCfg(m))
	var tooNew *errTooNew
	if !errors.As(err, &tooNew) {
		t.Fatalf("err = %v, want too-new rejection", err)
	}
}

func TestBlobSaverContinuesSequence(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 2)
	store := blob.NewMemStore()
	if _, err := NewSaver(store).Save(ctx, s); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSaver(store).Save(ctx, s); err != nil { // fresh saver, same store
		t.Fatal(err)
	}
	keys, _ := store.List(ctx, manifestPrefix)
	if len(keys) != 2 || keys[1] != manifestKey(2) {
		t.Fatalf("manifests = %v, want continuation to seq 2", keys)
	}
	// A fresh Saver must not trust another writer's epochs: full upload.
	_, man, err := LoadFromStore(ctx, store, storeCfg(m))
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 2 {
		t.Fatalf("seq = %d", man.Seq)
	}
}

// TestBlobAttachMakesFirstSaveIncremental: after a cold start the Saver
// attached to the loaded manifest skips everything unchanged.
func TestBlobAttachMakesFirstSaveIncremental(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 4)
	store := blob.NewMemStore()
	sv := NewSaver(store)
	if _, err := sv.Save(ctx, s); err != nil {
		t.Fatal(err)
	}
	loaded, man, err := LoadFromStore(ctx, store, storeCfg(m))
	if err != nil {
		t.Fatal(err)
	}
	sv2 := NewSaver(store)
	sv2.Attach(man)
	stats, err := sv2.Save(ctx, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BasesUploaded != 0 || stats.OvlsUploaded != 0 {
		t.Fatalf("attached cold-start save stats = %+v, want all skipped", stats)
	}
}

func TestBlobGCRetainsTwoSnapshots(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 2)
	store := blob.NewMemStore()
	sv := NewSaver(store)
	for i := 0; i < 5; i++ {
		s.Add(fmt.Sprintf("palabra%d", i), 0)
		if i%2 == 1 {
			s.Compact()
		}
		if _, err := sv.Save(ctx, s); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	mans, _ := store.List(ctx, manifestPrefix)
	if len(mans) != gcKeepManifests {
		t.Fatalf("manifests after GC = %v, want %d", mans, gcKeepManifests)
	}
	if mans[len(mans)-1] != manifestKey(5) {
		t.Fatalf("newest manifest = %s", mans[len(mans)-1])
	}
	// Both retained snapshots must stay fully loadable after GC.
	for _, mk := range mans {
		c := store.Clone()
		seq, _ := manifestSeq(mk)
		// Drop newer manifests so the loader targets mk.
		for _, other := range mans {
			if oseq, _ := manifestSeq(other); oseq > seq {
				c.Delete(ctx, other)
			}
		}
		if _, man, err := LoadFromStore(ctx, c, storeCfg(m)); err != nil || man.Seq != seq {
			t.Fatalf("retained snapshot %d not loadable: %v", seq, err)
		}
	}
}
