package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"ced/internal/blob"
	"ced/internal/metric"
)

func TestEngineAddDeleteVisibleToQueries(t *testing.T) {
	e := newTestEngine(t, "laesa")
	id, err := e.Add(context.Background(), "zzyzx", 2)
	if err != nil {
		t.Fatal(err)
	}
	if id != uint64(len(testCorpus)) {
		t.Fatalf("first minted ID = %d, want %d", id, len(testCorpus))
	}
	ns, _, err := e.KNearestCtx(context.Background(), "zzyzx", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0].ID != id || ns[0].Distance != 0 {
		t.Fatalf("added element not nearest to itself: %+v", ns)
	}
	p, _, err := Classify(context.Background(), e, "zzyzx")
	if err != nil || p.Label != 2 {
		t.Fatalf("classify after add = %+v, err %v", p, err)
	}
	if ok, err := e.Delete(context.Background(), id); err != nil || !ok {
		t.Fatalf("delete of live element failed: ok=%v err=%v", ok, err)
	}
	if ok, _ := e.Delete(context.Background(), id); ok {
		t.Fatal("double delete succeeded")
	}
	ns, _, err = e.KNearestCtx(context.Background(), "zzyzx", len(testCorpus))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if n.ID == id {
			t.Fatalf("deleted element resurfaced: %+v", n)
		}
	}
	if got := e.Info().CorpusSize; got != len(testCorpus) {
		t.Errorf("live size = %d, want %d", got, len(testCorpus))
	}
}

func TestInfoReportsLiveSizeAndShards(t *testing.T) {
	e, err := New(testCorpus, testLabels, metric.ContextualHeuristic(),
		Config{Algorithm: "laesa", Pivots: 3, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.Add(context.Background(), "uno", 0)
	e.Add(context.Background(), "dos", 1)
	e.Delete(context.Background(), 0)
	info := e.Info()
	if info.CorpusSize != len(testCorpus)+1 {
		t.Errorf("live corpus size = %d, want %d", info.CorpusSize, len(testCorpus)+1)
	}
	if info.Shards.Shards != 3 || info.Shards.Adds != 2 || info.Shards.Deletes != 1 {
		t.Errorf("shard info = %+v", info.Shards)
	}
	if len(info.Shards.Detail) != 3 {
		t.Fatalf("detail = %+v", info.Shards.Detail)
	}
	deltas, tombs := 0, 0
	for _, d := range info.Shards.Detail {
		deltas += d.Delta
		tombs += d.Tombstones
	}
	if deltas != 2 || tombs != 1 {
		t.Errorf("deltas = %d tombs = %d, want 2 and 1", deltas, tombs)
	}
}

// TestShardedEngineMatchesMonolithic pins the serve-level differential: a
// 4-shard engine returns the same k-NN distances and classifications as
// the default single-shard engine.
func TestShardedEngineMatchesMonolithic(t *testing.T) {
	m := metric.ContextualHeuristic()
	mono, err := New(testCorpus, testLabels, m, Config{Algorithm: "laesa", Pivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(testCorpus, testLabels, m, Config{Algorithm: "laesa", Pivots: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"cas", "gatito", "queso", "xyz", ""} {
		want, _, err := mono.KNearestCtx(context.Background(), q, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sharded.KNearestCtx(context.Background(), q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %q: %d neighbours vs %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Distance != want[i].Distance {
				t.Errorf("query %q rank %d: distance %v vs %v", q, i, got[i].Distance, want[i].Distance)
			}
		}
		pw, _, err := Classify(context.Background(), mono, q)
		if err != nil {
			t.Fatal(err)
		}
		pg, _, err := Classify(context.Background(), sharded, q)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Neighbor.Distance != pw.Neighbor.Distance {
			t.Errorf("query %q: classify distance %v vs %v", q, pg.Neighbor.Distance, pw.Neighbor.Distance)
		}
	}
}

// TestEngineSnapshotRoundTrip saves a mutated engine to a store and
// cold-starts a second engine from it: equal answers, the add present, the
// tombstone kept, and a mismatched engine refused.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	st := blob.NewMemStore()
	cfg := Config{Algorithm: "laesa", Pivots: 3, Shards: 2, Store: st}
	e, err := New(testCorpus, testLabels, metric.ContextualHeuristic(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Add(context.Background(), "nuevo", 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Delete(context.Background(), 0)
	if _, err := e.SaveToStore(ctx); err != nil {
		t.Fatal(err)
	}
	want, _, _ := e.KNearestCtx(ctx, "nuevo", 3)

	e2, err := New(testCorpus, testLabels, metric.ContextualHeuristic(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	size, err := e2.LoadFromStore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if size != len(testCorpus) { // +1 add, -1 delete
		t.Fatalf("restored size = %d, want %d", size, len(testCorpus))
	}
	got, _, err := e2.KNearestCtx(ctx, "nuevo", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if got[0].ID != id || got[0].Distance != 0 {
		t.Errorf("restored add missing: %+v", got[0])
	}
	if ok, _ := e2.Delete(context.Background(), 0); ok {
		t.Error("restored tombstone forgotten: delete of id 0 succeeded again")
	}

	// A mismatched engine must refuse the snapshot.
	e3, err := New(testCorpus, testLabels, metric.ContextualHeuristic(),
		Config{Algorithm: "aesa", Shards: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e3.LoadFromStore(ctx); err == nil {
		t.Error("algorithm mismatch should fail")
	}
}

// newMutableServer serves a two-shard labelled engine over st (nil: no
// store).
func newMutableServer(t *testing.T, st blob.Store) *httptest.Server {
	t.Helper()
	e, err := New(testCorpus, testLabels, metric.ContextualHeuristic(),
		Config{Algorithm: "laesa", Pivots: 3, Shards: 2, CacheSize: 64, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return srv
}

func TestAddDeleteEndpoints(t *testing.T) {
	srv := newMutableServer(t, nil)
	var out struct {
		ID   uint64 `json:"id"`
		Size int    `json:"size"`
	}
	if code := postJSON(t, srv, "/add", `{"value":"gatita","label":3}`, &out); code != http.StatusOK {
		t.Fatalf("add status = %d", code)
	}
	if out.ID != uint64(len(testCorpus)) || out.Size != len(testCorpus)+1 {
		t.Fatalf("add response = %+v", out)
	}
	var knn struct {
		Results []Neighbor `json:"results"`
	}
	if code := postJSON(t, srv, "/knn", `{"query":"gatita","k":1}`, &knn); code != http.StatusOK {
		t.Fatalf("knn status = %d", code)
	}
	if len(knn.Results) != 1 || knn.Results[0].Value != "gatita" {
		t.Fatalf("knn after add = %+v", knn)
	}
	// The corpus is labelled: adds without a label must be rejected.
	if code := postJSON(t, srv, "/add", `{"value":"x"}`, nil); code != http.StatusBadRequest {
		t.Errorf("unlabelled add status = %d", code)
	}
	if code := postJSON(t, srv, "/delete", `{"id":8}`, &out); code != http.StatusOK {
		t.Fatalf("delete status = %d", code)
	}
	if out.Size != len(testCorpus) {
		t.Errorf("size after delete = %d", out.Size)
	}
	if code := postJSON(t, srv, "/delete", `{"id":8}`, nil); code != http.StatusNotFound {
		t.Errorf("double delete status = %d", code)
	}
	if code := postJSON(t, srv, "/delete", `{}`, nil); code != http.StatusBadRequest {
		t.Errorf("missing id status = %d", code)
	}
}

func TestSnapshotEndpoints(t *testing.T) {
	srv := newMutableServer(t, blob.NewMemStore())

	var add struct {
		ID uint64 `json:"id"`
	}
	if code := postJSON(t, srv, "/add", `{"value":"persistida","label":0}`, &add); code != http.StatusOK {
		t.Fatalf("add status = %d", code)
	}
	var snap snapshotResponse
	if code := postJSON(t, srv, "/snapshot/save", ``, &snap); code != http.StatusOK {
		t.Fatalf("save status = %d", code)
	}
	if snap.Seq != 1 || snap.Bytes <= 0 || snap.Size != len(testCorpus)+1 {
		t.Fatalf("save response = %+v", snap)
	}

	// Mutate past the snapshot, then load it back: the add survives, the
	// post-snapshot delete is undone.
	if code := postJSON(t, srv, "/delete", `{"id":0}`, nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if code := postJSON(t, srv, "/snapshot/load", ``, &snap); code != http.StatusOK {
		t.Fatalf("load status = %d", code)
	}
	if snap.Size != len(testCorpus)+1 {
		t.Fatalf("restored size = %d", snap.Size)
	}
	var knn struct {
		Results []Neighbor `json:"results"`
	}
	if code := postJSON(t, srv, "/knn", `{"query":"persistida","k":1}`, &knn); code != http.StatusOK {
		t.Fatal("knn failed")
	}
	if len(knn.Results) != 1 || knn.Results[0].Value != "persistida" {
		t.Fatalf("restored element missing: %+v", knn)
	}

	// Without a store both endpoints refuse.
	bare := newMutableServer(t, nil)
	if code := postJSON(t, bare, "/snapshot/save", ``, nil); code != http.StatusBadRequest {
		t.Errorf("storeless save status = %d", code)
	}
	if code := postJSON(t, bare, "/snapshot/load", ``, nil); code != http.StatusBadRequest {
		t.Errorf("storeless load status = %d", code)
	}
}
