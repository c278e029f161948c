package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ced/internal/blob"
	"ced/internal/metric"
	"ced/internal/search"
)

// newStoreEngine builds a labelled multi-shard engine wired to st, so
// incremental-save assertions exercise real per-shard objects.
func newStoreEngine(t *testing.T, st blob.Store, every int, retry time.Duration) *Engine {
	t.Helper()
	e, err := New(testCorpus, testLabels, metric.ContextualHeuristic(), Config{
		Algorithm: "laesa", Pivots: 3, Shards: 4, CacheSize: 64,
		Store: st, SnapshotEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if retry > 0 {
		e.snapshotRetry = retry
	}
	return e
}

// engineAnswers captures query answers as text, the equality surface for
// "a cold start answers exactly like the engine that saved".
func engineAnswers(t *testing.T, e *Engine, probes []string) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "size=%d\n", e.Info().CorpusSize)
	for _, q := range probes {
		ns, _, err := e.KNearestCtx(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			fmt.Fprintf(&b, "knn %s %d %s %.17g\n", q, n.ID, n.Value, n.Distance)
		}
		p, _, err := Classify(context.Background(), e, q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "cls %s %d %.17g\n", q, p.Label, p.Neighbor.Distance)
	}
	return b.String()
}

// liveValues enumerates every live corpus string via an everything radius
// query (the heuristic metric is normalised, so 2.0 covers the space).
func liveValues(t *testing.T, e *Engine) []string {
	t.Helper()
	ns, _, err := e.Query(context.Background(), "casa", search.Within(2.0))
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]string, len(ns))
	for i, n := range ns {
		vals[i] = n.Value
	}
	sort.Strings(vals)
	return vals
}

var storeProbes = []string{"casa", "queso", "gato", "zzz"}

// TestStoreSaveLoadColdStart round-trips the engine through the store:
// mutate, save, cold-start a second engine from the manifest, and require
// bit-identical answers plus truthful /healthz snapshot metadata.
func TestStoreSaveLoadColdStart(t *testing.T) {
	ctx := context.Background()
	st := blob.NewMemStore()
	e := newStoreEngine(t, st, 0, 0)
	if !e.StoreConfigured() {
		t.Fatal("StoreConfigured = false with a store attached")
	}
	if _, err := e.Add(context.Background(), "nuevo", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Delete(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	stats, err := e.SaveToStore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Seq != 1 {
		t.Fatalf("first save seq = %d, want 1", stats.Seq)
	}
	if stats.BasesUploaded == 0 || stats.BytesUploaded == 0 {
		t.Fatalf("first save uploaded nothing: %+v", stats)
	}
	want := engineAnswers(t, e, storeProbes)

	cold := newStoreEngine(t, st, 0, 0)
	size, err := cold.LoadFromStore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if size != e.Info().CorpusSize {
		t.Fatalf("cold start size = %d, want %d", size, e.Info().CorpusSize)
	}
	if got := engineAnswers(t, cold, storeProbes); got != want {
		t.Fatalf("cold start answers diverge:\ngot:\n%s\nwant:\n%s", got, want)
	}
	si := cold.Info().Snapshot
	if !si.Configured || si.LastSeq != 1 || !si.Loaded {
		t.Fatalf("cold-start snapshot info = %+v", si)
	}

	// The cold engine attached the manifest, so its next save of the
	// untouched corpus re-uploads nothing.
	stats, err = cold.SaveToStore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BasesUploaded != 0 || stats.OvlsUploaded != 0 {
		t.Fatalf("no-op save after cold start uploaded objects: %+v", stats)
	}
}

// TestStoreWithoutConfig pins the error paths when no store is attached.
func TestStoreWithoutConfig(t *testing.T) {
	e := newTestEngine(t, "laesa")
	if e.StoreConfigured() {
		t.Fatal("StoreConfigured = true without a store")
	}
	if _, err := e.SaveToStore(context.Background()); err == nil {
		t.Error("SaveToStore without a store should fail")
	}
	if _, err := e.LoadFromStore(context.Background()); err == nil {
		t.Error("LoadFromStore without a store should fail")
	}
	if si := e.Info().Snapshot; si.Configured {
		t.Errorf("snapshot info claims a store: %+v", si)
	}
}

// TestAutoSnapshotThresholdIncremental drives the mutation counter across
// the threshold twice and proves on the fault store's op log that the
// second background save re-uploads only the overlays of touched shards —
// never a base object, because no compaction ran.
func TestAutoSnapshotThresholdIncremental(t *testing.T) {
	fs := blob.NewFaultStore(blob.NewMemStore())
	e := newStoreEngine(t, fs, 3, time.Minute)

	for i, w := range []string{"uno", "dos", "tres"} {
		if _, err := e.Add(context.Background(), w, i%3); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitSnapshots()
	si := e.Info().Snapshot
	if si.Saves != 1 || si.LastSeq != 1 || si.LastError != "" {
		t.Fatalf("after threshold: snapshot info = %+v", si)
	}

	fs.ResetCounters()
	if _, err := e.Add(context.Background(), "cuatro", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(context.Background(), "cinco", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(context.Background(), "seis", 2); err != nil {
		t.Fatal(err)
	}
	e.WaitSnapshots()
	if si := e.Info().Snapshot; si.Saves != 2 || si.LastSeq != 2 {
		t.Fatalf("after second threshold: snapshot info = %+v", si)
	}
	keys := fs.PutKeys()
	var bases, ovls, manifests int
	for _, k := range keys {
		switch {
		case strings.Contains(k, "/base-"):
			bases++
		case strings.Contains(k, "/ovl-"):
			ovls++
		case strings.HasPrefix(k, "manifest/"):
			manifests++
		}
	}
	if bases != 0 {
		t.Errorf("incremental save re-uploaded %d base objects: %v", bases, keys)
	}
	if ovls == 0 || ovls > 3 {
		t.Errorf("incremental save uploaded %d overlays (3 adds): %v", ovls, keys)
	}
	if manifests != 1 {
		t.Errorf("incremental save published %d manifests: %v", manifests, keys)
	}
}

// TestAutoSnapshotFailureCooldown arms one injected Put failure: the
// background save must fail visibly in /healthz, further mutations inside
// the cool-down must not retry the dead store, and a manual SaveToStore
// (which bypasses the cool-down) must recover and clear the error.
func TestAutoSnapshotFailureCooldown(t *testing.T) {
	fs := blob.NewFaultStore(blob.NewMemStore())
	e := newStoreEngine(t, fs, 2, time.Hour)
	fs.FailPut(1, false)

	if _, err := e.Add(context.Background(), "uno", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(context.Background(), "dos", 1); err != nil {
		t.Fatal(err)
	}
	e.WaitSnapshots()
	si := e.Info().Snapshot
	if si.Failures != 1 || si.Saves != 0 {
		t.Fatalf("after injected failure: snapshot info = %+v", si)
	}
	if !strings.Contains(si.LastError, "injected") {
		t.Fatalf("LastError = %q, want the injected fault", si.LastError)
	}

	// Inside the hour-long cool-down, threshold crossings stay silent.
	fs.ResetCounters()
	for i := 0; i < 6; i++ {
		if _, err := e.Add(context.Background(), fmt.Sprintf("mut%d", i), i%3); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitSnapshots()
	if puts, _, _, _ := fs.Counts(); puts != 0 {
		t.Fatalf("cool-down did not mute retries: %d puts", puts)
	}

	stats, err := e.SaveToStore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	si = e.Info().Snapshot
	if si.Saves != 1 || si.LastError != "" || si.LastSeq != stats.Seq {
		t.Fatalf("after manual recovery: snapshot info = %+v", si)
	}
}

// TestSnapshotMutationStress hammers the engine with concurrent adds and
// deletes while threshold-triggered background saves run, fires exactly
// one concurrent LoadFromStore mid-stress, and then requires (a) the live
// corpus to contain only ledger values, (b) a final save + cold start to
// reproduce the live engine bit-identically, and (c) a follow-up save of
// the quiesced corpus to upload nothing. Run under -race.
func TestSnapshotMutationStress(t *testing.T) {
	ctx := context.Background()
	fs := blob.NewFaultStore(blob.NewMemStore())
	e := newStoreEngine(t, fs, 8, time.Minute)

	const workers, opsEach = 4, 50
	ledger := make(map[string]bool, workers*opsEach+len(testCorpus))
	for _, w := range testCorpus {
		ledger[w] = true
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []uint64
			for i := 0; i < opsEach; i++ {
				w := fmt.Sprintf("g%d-%d", g, i)
				mu.Lock()
				ledger[w] = true
				mu.Unlock()
				id, err := e.Add(context.Background(), w, g%3)
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, id)
				if i%7 == 6 {
					// Deleting an own earlier id races the snapshot swap;
					// either outcome keeps the value inside the ledger.
					if _, err := e.Delete(context.Background(), mine[len(mine)/2]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	// One cold-start load racing the mutators: it must neither error nor
	// corrupt the set, and mutations keep landing on whatever set wins.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e.Info().Snapshot.Saves == 0 {
			time.Sleep(time.Millisecond)
		}
		if _, err := e.LoadFromStore(ctx); err != nil {
			t.Errorf("concurrent LoadFromStore: %v", err)
		}
	}()
	wg.Wait()
	e.WaitSnapshots()

	for _, v := range liveValues(t, e) {
		if !ledger[v] {
			t.Fatalf("live value %q never appeared in the ledger", v)
		}
	}

	if _, err := e.SaveToStore(ctx); err != nil {
		t.Fatal(err)
	}
	want := engineAnswers(t, e, storeProbes)
	cold := newStoreEngine(t, fs, 0, 0)
	if _, err := cold.LoadFromStore(ctx); err != nil {
		t.Fatal(err)
	}
	if got := engineAnswers(t, cold, storeProbes); got != want {
		t.Fatalf("cold start diverges from live engine:\ngot:\n%s\nwant:\n%s", got, want)
	}

	stats, err := e.SaveToStore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BasesUploaded != 0 || stats.OvlsUploaded != 0 {
		t.Fatalf("save of a quiesced corpus uploaded objects: %+v", stats)
	}
}

// holdFirstObjectRead is a store that, once armed, parks the first read
// of a snapshot object (anything but a manifest) until release is closed,
// so a test can act while a load is mid-flight.
type holdFirstObjectRead struct {
	blob.Store
	armed   atomic.Bool
	once    sync.Once
	held    chan struct{} // closed when the parked read arrives
	release chan struct{}
}

func (h *holdFirstObjectRead) Get(ctx context.Context, key string) ([]byte, error) {
	if h.armed.Load() && !strings.HasPrefix(key, "manifest/") {
		first := false
		h.once.Do(func() { first = true })
		if first {
			close(h.held)
			<-h.release
		}
	}
	return h.Store.Get(ctx, key)
}

// TestLoadNotOvertakenBySaves is the regression test for a load that two
// saves overtake. The load's first object read is held while two saves,
// each after a write to every shard, are issued. Two saves are what
// garbage-collects the overlays of the manifest the load is reading. The
// load must succeed, and a save after it must publish a snapshot that
// cold-starts into the live engine's answers.
func TestLoadNotOvertakenBySaves(t *testing.T) {
	ctx := context.Background()
	st := &holdFirstObjectRead{Store: blob.NewMemStore(), held: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(st.release) }) }
	t.Cleanup(release)
	e := newStoreEngine(t, st, 0, 0)
	// One write to every shard (IDs go round-robin), so every shard of the
	// snapshot carries an overlay.
	writeAll := func(tag string) error {
		for i := 0; i < 4; i++ {
			if _, err := e.Add(ctx, fmt.Sprintf("%s-%d", tag, i), i%3); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeAll("first"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SaveToStore(ctx); err != nil {
		t.Fatal(err)
	}

	st.armed.Store(true)
	loaded := make(chan error, 1)
	go func() {
		_, err := e.LoadFromStore(ctx)
		loaded <- err
	}()
	<-st.held

	saved := make(chan error, 1)
	go func() {
		for _, tag := range []string{"second", "third"} {
			if err := writeAll(tag); err != nil {
				saved <- err
				return
			}
			if _, err := e.SaveToStore(ctx); err != nil {
				saved <- err
				return
			}
		}
		saved <- nil
	}()
	// Unsynchronised saves finish in well under this; saves that wait for
	// the load are still waiting when it ends.
	savesDone := false
	select {
	case err := <-saved:
		if err != nil {
			t.Fatal(err)
		}
		savesDone = true
	case <-time.After(250 * time.Millisecond):
	}
	release()
	if err := <-loaded; err != nil {
		t.Fatalf("LoadFromStore overtaken by two saves: %v", err)
	}
	if !savesDone {
		if err := <-saved; err != nil {
			t.Fatal(err)
		}
	}

	if err := writeAll("fourth"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SaveToStore(ctx); err != nil {
		t.Fatal(err)
	}
	want := engineAnswers(t, e, storeProbes)
	cold := newStoreEngine(t, st.Store, 0, 0)
	if _, err := cold.LoadFromStore(ctx); err != nil {
		t.Fatalf("newest snapshot after the load cannot be restored: %v", err)
	}
	if got := engineAnswers(t, cold, storeProbes); got != want {
		t.Fatalf("cold start diverges from live engine:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotEndpointsWithStore exercises the store-backed branches of
// /snapshot/save, /snapshot/load and the /healthz snapshot block over
// real HTTP.
func TestSnapshotEndpointsWithStore(t *testing.T) {
	st := blob.NewMemStore()
	e := newStoreEngine(t, st, 0, 0)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	var save snapshotResponse
	if code := postJSON(t, srv, "/snapshot/save", "", &save); code != 200 {
		t.Fatalf("save status %d", code)
	}
	if save.Seq != 1 || save.Uploaded == 0 || save.Bytes == 0 {
		t.Fatalf("save response %+v", save)
	}
	if _, err := e.Add(context.Background(), "nuevo", 1); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, srv, "/snapshot/save", "", &save); code != 200 {
		t.Fatalf("second save status %d", code)
	}
	if save.Seq != 2 || save.Skipped == 0 {
		t.Fatalf("second save response %+v (want skipped bases)", save)
	}

	var load snapshotResponse
	if code := postJSON(t, srv, "/snapshot/load", "", &load); code != 200 {
		t.Fatalf("load status %d", code)
	}
	if load.Seq != 2 || load.Size != e.Info().CorpusSize {
		t.Fatalf("load response %+v", load)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Info Info `json:"info"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	si := health.Info.Snapshot
	if !si.Configured || si.LastSeq != 2 || !si.Loaded || si.Saves != 2 {
		t.Fatalf("healthz snapshot block %+v", si)
	}
}

// TestSnapshotStoreCorruptLoad pins /snapshot/load's failure answers: a
// store that holds snapshots but cannot serve one — a corrupt object, only
// torn manifests, a snapshot saved under another metric — answers 500 and
// leaves the live set's answers unchanged; a store that holds no snapshot
// at all answers 404.
func TestSnapshotStoreCorruptLoad(t *testing.T) {
	ctx := context.Background()
	saved := blob.NewMemStore()
	if _, err := newStoreEngine(t, saved, 0, 0).SaveToStore(ctx); err != nil {
		t.Fatal(err)
	}
	objects, err := saved.List(ctx, "shards/")
	if err != nil || len(objects) == 0 {
		t.Fatalf("saved objects = %v, %v", objects, err)
	}
	manifests, err := saved.List(ctx, "manifest/")
	if err != nil || len(manifests) == 0 {
		t.Fatalf("saved manifests = %v, %v", manifests, err)
	}

	corruptObject := saved.Clone()
	if !corruptObject.Corrupt(objects[0], 3) {
		t.Fatalf("corrupting %s", objects[0])
	}
	tornManifests := saved.Clone()
	for _, k := range manifests {
		if !tornManifests.Corrupt(k, tornManifests.Size(k)/2) {
			t.Fatalf("corrupting %s", k)
		}
	}
	for _, tc := range []struct {
		name   string
		store  blob.Store
		metric metric.Metric
		want   int
	}{
		{"corrupt object", corruptObject, metric.ContextualHeuristic(), http.StatusInternalServerError},
		{"torn manifests only", tornManifests, metric.ContextualHeuristic(), http.StatusInternalServerError},
		{"metric mismatch", saved.Clone(), metric.Levenshtein(), http.StatusInternalServerError},
		{"empty store", blob.NewMemStore(), metric.ContextualHeuristic(), http.StatusNotFound},
	} {
		e, err := New(testCorpus, testLabels, tc.metric, Config{
			Algorithm: "laesa", Pivots: 3, Shards: 4, CacheSize: 64, Store: tc.store,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A live set that differs from the stored one, so a partial swap
		// would show in the answers.
		if _, err := e.Add(context.Background(), "vivo", 1); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(e))
		want := engineAnswers(t, e, storeProbes)
		var out ErrorResponse
		if code := postJSON(t, srv, "/snapshot/load", "", &out); code != tc.want {
			t.Errorf("%s: /snapshot/load status %d (%s), want %d", tc.name, code, out.Error, tc.want)
		}
		if got := engineAnswers(t, e, storeProbes); got != want {
			t.Errorf("%s: failed load disturbed the live set:\ngot:\n%s\nwant:\n%s", tc.name, got, want)
		}
		srv.Close()
	}
}
