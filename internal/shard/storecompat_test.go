package shard

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ced/internal/blob"
	"ced/internal/metric"
)

// fixtureStore is a snapshot committed as written by the code before the
// deletion ledger moved from the shard state onto the shard (commit
// 4802566): fixtureSet's history, saved once into a fresh directory
// store. Its last overlays are uncompacted, so every shard's tombstones,
// dead IDs and delta are non-empty.
const fixtureStore = "testdata/store-v1"

var fixtureCorpus = []string{
	"casa", "cosa", "caso", "masa", "pasa", "queso", "gato", "gatos",
	"pato", "plato", "perro", "pera", "mesa", "misa", "rosa", "ropa",
	"sopa", "sapo", "luna", "lana", "mano", "mono", "vino", "vano",
}

// fixtureCfg is the Config fixtureSet builds with and the fixture loads
// under: dC, LAESA with 4 pivots, and a threshold that no mutation
// reaches, so only the explicit compaction rebuilds.
func fixtureCfg() Config {
	m := metric.Contextual()
	return Config{
		Shards:           3,
		Metric:           m,
		Build:            testBuilder(m, 4, 42),
		Algorithm:        "laesa",
		Workers:          1,
		CompactThreshold: 1 << 20,
	}
}

// fixtureSet replays the history behind fixtureStore on a fresh labelled
// 3-shard set: adds, base and delta deletes, one compaction of shard 0,
// then more of each and an AddWithID past the allocator. It returns the
// set and every ID it deleted.
func fixtureSet(t *testing.T) (*Set, []uint64) {
	t.Helper()
	labels := make([]int, len(fixtureCorpus))
	for i := range labels {
		labels[i] = i % 3
	}
	s, err := New(fixtureCorpus, labels, fixtureCfg())
	if err != nil {
		t.Fatal(err)
	}
	var deleted []uint64
	add := func(values ...string) {
		for _, v := range values {
			s.Add(v, len(v)%3)
		}
	}
	del := func(ids ...uint64) {
		for _, id := range ids {
			if !s.Delete(id) {
				t.Fatalf("fixture delete of %d failed", id)
			}
			deleted = append(deleted, id)
		}
	}
	add("casita", "cosita", "masita", "gatito", "platito", "quesito") // IDs 24–29
	del(1, 5, 6)                                                      // base
	del(25, 27)                                                       // delta
	s.compactShard(s.shards[0])
	add("perrito", "mesita", "rosita", "lunita", "manita", "vinito") // IDs 30–35
	del(24, 4, 8)                                                    // base; 24 was baked in by the compaction
	del(33, 31, 32)                                                  // delta
	if !s.AddWithID(100, "lejano", 1) {
		t.Fatal("fixture AddWithID(100) refused")
	}
	add("cercano") // ID 101
	return s, deleted
}

// storeObjects reads every object of a store, keyed by name.
func storeObjects(t *testing.T, st blob.Store) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	keys, err := st.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	objs := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if objs[k], err = st.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	return objs
}

// TestStoredSnapshotStillLoads loads the committed fixture store and
// requires it to hold what replaying its history on a fresh set holds:
// the same live elements, allocator and answers, and a ledger that
// refuses every deleted ID. Saving either set into a fresh store must
// then reproduce the fixture's objects byte for byte, so the overlay
// format is unchanged, stored snapshots keep their digests, and an
// incremental save after a cold start keeps skipping unchanged objects.
func TestStoredSnapshotStillLoads(t *testing.T) {
	ctx := context.Background()
	fixture, err := blob.NewDirStore(fixtureStore)
	if err != nil {
		t.Fatal(err)
	}
	want, deleted := fixtureSet(t)
	got, _, err := LoadFromStore(ctx, fixture, fixtureCfg())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Elements(), want.Elements(); !reflect.DeepEqual(g, w) {
		t.Fatalf("loaded elements differ from the replay:\nloaded: %v\nreplay: %v", g, w)
	}
	if got.NextID() != want.NextID() {
		t.Fatalf("loaded NextID = %d, replay %d", got.NextID(), want.NextID())
	}
	probes := append([]string{"cas", "gatito", "lejos", "sopas"}, snapProbes...)
	if g, w := answersOf(got, probes), answersOf(want, probes); g != w {
		t.Fatalf("loaded answers differ from the replay:\nloaded:\n%s\nreplay:\n%s", g, w)
	}
	for _, d := range got.Info().Detail {
		if d.Tombstones == 0 || d.Delta == 0 {
			t.Fatalf("fixture shard lacks an overlay part: %+v", d)
		}
	}

	wantObjs := storeObjects(t, fixture)
	for name, s := range map[string]*Set{"loaded": got, "replayed": want} {
		mem := blob.NewMemStore()
		if _, err := NewSaver(mem).Save(ctx, s); err != nil {
			t.Fatal(err)
		}
		gotObjs := storeObjects(t, mem)
		if len(gotObjs) != len(wantObjs) {
			t.Errorf("%s set saved %d objects, fixture holds %d", name, len(gotObjs), len(wantObjs))
		}
		for k, b := range wantObjs {
			if !bytes.Equal(gotObjs[k], b) {
				t.Errorf("%s set re-saved %s differently from the fixture", name, k)
			}
		}
	}

	for _, id := range deleted {
		if got.AddWithID(id, "resurrect", 0) {
			t.Errorf("loaded set resurrected deleted ID %d", id)
		}
		if got.Delete(id) {
			t.Errorf("loaded set deleted ID %d twice", id)
		}
	}
}
