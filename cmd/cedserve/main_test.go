package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ced/internal/shard"
)

// writeCorpus writes a small labelled corpus in the dataset file format.
func writeCorpus(t *testing.T) string {
	t.Helper()
	lines := "casa\t0\ncosa\t0\ncaso\t0\nmasa\t1\npasa\t1\nqueso\t2\ngato\t3\ngatos\t3\n"
	path := filepath.Join(t.TempDir(), "corpus.tsv")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func post(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndAllIndexKinds drives the full stack — flag-level build, the
// ced.Server facade, the JSON handler — through httptest for every index
// kind, exercising /distance, /distance/batch, /knn and /classify.
func TestEndToEndAllIndexKinds(t *testing.T) {
	corpus := writeCorpus(t)
	for _, index := range shard.Kinds {
		t.Run(index, func(t *testing.T) {
			dist := "dC,h"
			if index == "bktree" {
				dist = "dE" // it prunes on integer dE values
			}
			srv, info, err := build(buildOpts{corpusPath: corpus, dist: dist, index: index, pivots: 4, workers: 2, buildWorkers: 4, cache: 128, seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if info.CorpusSize != 8 || !info.Labelled {
				t.Fatalf("info = %+v", info)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			// /healthz
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz status = %d", resp.StatusCode)
			}

			// /distance: identical strings are at distance 0 under every
			// metric of the paper.
			var d struct {
				Distance     float64 `json:"distance"`
				Computations int     `json:"computations"`
			}
			if code := post(t, ts.URL+"/distance", `{"a":"queso","b":"queso"}`, &d); code != http.StatusOK {
				t.Fatalf("/distance status = %d", code)
			}
			if d.Distance != 0 || d.Computations != 1 {
				t.Fatalf("/distance = %+v", d)
			}

			// /distance/batch preserves order and matches the single calls.
			var b struct {
				Distances    []float64 `json:"distances"`
				Computations int       `json:"computations"`
			}
			body := `{"pairs":[{"a":"casa","b":"cosa"},{"a":"gato","b":"gato"},{"a":"queso","b":"gatos"}]}`
			if code := post(t, ts.URL+"/distance/batch", body, &b); code != http.StatusOK {
				t.Fatalf("/distance/batch status = %d", code)
			}
			if len(b.Distances) != 3 || b.Computations != 3 || b.Distances[1] != 0 {
				t.Fatalf("/distance/batch = %+v", b)
			}
			var single struct {
				Distance float64 `json:"distance"`
			}
			post(t, ts.URL+"/distance", `{"a":"queso","b":"gatos"}`, &single)
			if single.Distance != b.Distances[2] {
				t.Fatalf("batch disagrees with single: %v != %v", b.Distances[2], single.Distance)
			}

			// /knn: a corpus member is its own nearest neighbour at 0.
			var k struct {
				Results []struct {
					Value    string  `json:"value"`
					Distance float64 `json:"distance"`
				} `json:"results"`
				Computations int `json:"computations"`
			}
			if code := post(t, ts.URL+"/knn", `{"query":"queso","k":2}`, &k); code != http.StatusOK {
				t.Fatalf("/knn status = %d", code)
			}
			if len(k.Results) != 2 || k.Results[0].Value != "queso" || k.Results[0].Distance != 0 {
				t.Fatalf("/knn = %+v", k)
			}
			if k.Computations <= 0 || k.Results[1].Distance < k.Results[0].Distance {
				t.Fatalf("/knn metrics = %+v", k)
			}

			// /classify: "gatito" is nearest the cat family (label 3).
			var c struct {
				Label    int `json:"label"`
				Neighbor struct {
					Value string `json:"value"`
				} `json:"neighbor"`
				Computations int `json:"computations"`
			}
			if code := post(t, ts.URL+"/classify", `{"query":"gatito"}`, &c); code != http.StatusOK {
				t.Fatalf("/classify status = %d", code)
			}
			if c.Label != 3 || c.Computations <= 0 {
				t.Fatalf("/classify = %+v", c)
			}
		})
	}
}

func TestBuildValidation(t *testing.T) {
	corpus := writeCorpus(t)
	if _, _, err := build(buildOpts{dist: "dC,h", index: "laesa", pivots: 4, seed: 1}); err == nil {
		t.Error("no corpus and no sample should fail")
	}
	if _, _, err := build(buildOpts{corpusPath: corpus, sample: 10, dist: "dC,h", index: "laesa", pivots: 4, seed: 1}); err == nil {
		t.Error("corpus and sample together should fail")
	}
	if _, _, err := build(buildOpts{corpusPath: "/no/such/file", dist: "dC,h", index: "laesa", pivots: 4, seed: 1}); err == nil {
		t.Error("missing corpus file should fail")
	}
	if _, _, err := build(buildOpts{corpusPath: corpus, dist: "no-such-metric", index: "laesa", pivots: 4, seed: 1}); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, _, err := build(buildOpts{corpusPath: corpus, dist: "dC,h", index: "rtree", pivots: 4, seed: 1}); err == nil {
		t.Error("unknown index should fail")
	}
	if _, _, err := build(buildOpts{corpusPath: corpus, dist: "dC,h", index: "bktree", pivots: 4, seed: 1}); err == nil {
		t.Error("bktree with fractional metric should fail")
	}
}

// TestKNNReportsLadderStages serves the exact contextual distance and
// checks the wire format of the staged-ladder counters: the /knn metadata
// carries a per-stage rejections object and /healthz accumulates it.
func TestKNNReportsLadderStages(t *testing.T) {
	corpus := writeCorpus(t)
	srv, _, err := build(buildOpts{corpusPath: corpus, dist: "dC", index: "laesa", pivots: 3, workers: 1, buildWorkers: 1, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type rejections struct {
		Length    int64 `json:"length"`
		Edit      int64 `json:"edit"`
		Heuristic int64 `json:"heuristic"`
		Exact     int64 `json:"exact"`
	}
	var total rejections
	for _, q := range []string{"casitas", "quesadilla", "g", "pasapasa"} {
		var k struct {
			Computations int        `json:"computations"`
			Rejections   rejections `json:"rejections"`
		}
		body, _ := json.Marshal(map[string]any{"query": q, "k": 2})
		if code := post(t, ts.URL+"/knn", string(body), &k); code != http.StatusOK {
			t.Fatalf("/knn status = %d", code)
		}
		sum := k.Rejections.Length + k.Rejections.Edit + k.Rejections.Heuristic + k.Rejections.Exact
		if sum > int64(k.Computations) {
			t.Fatalf("query %q: %d rejections > %d computations", q, sum, k.Computations)
		}
		total.Length += k.Rejections.Length
		total.Edit += k.Rejections.Edit
		total.Heuristic += k.Rejections.Heuristic
		total.Exact += k.Rejections.Exact
	}
	if total == (rejections{}) {
		t.Fatal("expected staged rejections over the query set")
	}
	var h struct {
		Info struct {
			Rejections rejections `json:"rejections"`
		} `json:"info"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Info.Rejections != total {
		t.Fatalf("/healthz rejections = %+v, want %+v", h.Info.Rejections, total)
	}
}

// TestShardedServeAndSnapshotColdStart drives the sharded flags end to
// end: build with -shards 4 and -store DIR, mutate over HTTP, save a
// snapshot through /snapshot/save, then cold-start a second server from
// the store with -load-snapshot and check the mutated corpus came back
// without a corpus file.
func TestShardedServeAndSnapshotColdStart(t *testing.T) {
	corpus := writeCorpus(t)
	store := t.TempDir()
	srv, info, err := build(buildOpts{
		corpusPath: corpus, dist: "dC,h", index: "laesa", pivots: 4,
		seed: 1, shards: 4, store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards.Shards != 4 || info.CorpusSize != 8 {
		t.Fatalf("info = %+v", info)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var add struct {
		ID   uint64 `json:"id"`
		Size int    `json:"size"`
	}
	if code := post(t, ts.URL+"/add", `{"value":"gatita","label":3}`, &add); code != http.StatusOK {
		t.Fatalf("/add status = %d", code)
	}
	if code := post(t, ts.URL+"/delete", `{"id":0}`, nil); code != http.StatusOK {
		t.Fatal("/delete failed")
	}
	if code := post(t, ts.URL+"/snapshot/save", ``, nil); code != http.StatusOK {
		t.Fatal("/snapshot/save failed")
	}

	cold, coldInfo, err := build(buildOpts{
		dist: "dC,h", index: "laesa", pivots: 4, seed: 1,
		store: store, loadSnapshot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coldInfo.CorpusSize != 8 || coldInfo.Shards.Shards != 4 {
		t.Fatalf("cold-start info = %+v", coldInfo)
	}
	ts2 := httptest.NewServer(cold.Handler())
	defer ts2.Close()
	var k struct {
		Results []struct {
			Index    int     `json:"index"`
			Value    string  `json:"value"`
			Distance float64 `json:"distance"`
		} `json:"results"`
	}
	if code := post(t, ts2.URL+"/knn", `{"query":"gatita","k":1}`, &k); code != http.StatusOK {
		t.Fatal("/knn failed on cold start")
	}
	if len(k.Results) != 1 || k.Results[0].Value != "gatita" || k.Results[0].Index != int(add.ID) {
		t.Fatalf("restored mutation missing: %+v", k)
	}
	// The pre-snapshot delete survived too.
	if code := post(t, ts2.URL+"/delete", `{"id":0}`, nil); code != http.StatusNotFound {
		t.Error("tombstone for id 0 not restored")
	}

	// A metric mismatch at cold start must fail.
	if _, _, err := build(buildOpts{
		dist: "dE", index: "laesa", pivots: 4, seed: 1,
		store: store, loadSnapshot: true,
	}); err == nil {
		t.Error("metric mismatch should fail the cold start")
	}
	// -load-snapshot without -store is a flag error.
	if _, _, err := build(buildOpts{dist: "dC,h", index: "laesa", loadSnapshot: true}); err == nil {
		t.Error("-load-snapshot without -store should fail")
	}
}

// TestClusterModesEndToEnd drives the flag-level cluster stack: two shard
// hosts built by the -shard-server path, a coordinator built by the
// -coordinator path seeding a labelled corpus across them with R=2, then
// the client-facing JSON API end to end — /healthz topology, /knn with the
// corpus member at distance 0, /classify, /add + /delete round trip.
func TestClusterModesEndToEnd(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		h, err := buildShardServer(shardServerOpts{dist: "dC,h", index: "linear", seed: 1}, ":0")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	corpus := writeCorpus(t)
	ch, err := buildCoordinator(coordinatorOpts{
		shardsAt: strings.Join(urls, ","), corpusPath: corpus, dist: "dC,h",
		replicas: 2, timeout: 10 * time.Second, retries: 1,
	}, ":0")
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(ch)
	defer cts.Close()

	var h struct {
		Status  string `json:"status"`
		Cluster struct {
			Shards   int  `json:"shards"`
			Replicas int  `json:"replicas"`
			Healthy  bool `json:"healthy"`
			NextID   int  `json:"next_id"`
		} `json:"cluster"`
	}
	resp, err := http.Get(cts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Cluster.Healthy || h.Cluster.Shards != 2 || h.Cluster.Replicas != 2 || h.Cluster.NextID != 8 {
		t.Fatalf("/healthz = %+v", h)
	}

	var k struct {
		Results []struct {
			Index    int     `json:"index"`
			Value    string  `json:"value"`
			Distance float64 `json:"distance"`
		} `json:"results"`
		Computations int `json:"computations"`
	}
	if code := post(t, cts.URL+"/knn", `{"query":"queso","k":2}`, &k); code != http.StatusOK {
		t.Fatalf("/knn status = %d", code)
	}
	if len(k.Results) != 2 || k.Results[0].Value != "queso" || k.Results[0].Distance != 0 || k.Computations <= 0 {
		t.Fatalf("/knn = %+v", k)
	}

	var c struct {
		Label int `json:"label"`
	}
	if code := post(t, cts.URL+"/classify", `{"query":"gatito"}`, &c); code != http.StatusOK {
		t.Fatalf("/classify status = %d", code)
	}
	if c.Label != 3 {
		t.Fatalf("/classify label = %d, want 3", c.Label)
	}

	var add struct {
		ID   uint64 `json:"id"`
		Size int    `json:"size"`
	}
	if code := post(t, cts.URL+"/add", `{"value":"gatita","label":3}`, &add); code != http.StatusOK {
		t.Fatalf("/add status = %d", code)
	}
	if add.ID != 8 || add.Size != 9 {
		t.Fatalf("/add = %+v", add)
	}
	if code := post(t, cts.URL+"/delete", `{"id":8}`, nil); code != http.StatusOK {
		t.Fatal("/delete failed")
	}
	if code := post(t, cts.URL+"/delete", `{"id":8}`, nil); code != http.StatusNotFound {
		t.Fatal("double delete should be a 404")
	}
}

func TestClusterModeValidation(t *testing.T) {
	corpus := writeCorpus(t)
	if _, err := buildShardServer(shardServerOpts{dist: "dC,h", index: "linear", corpusPath: corpus}, ":0"); err == nil {
		t.Error("-shard-server with a corpus should fail")
	}
	if _, err := buildShardServer(shardServerOpts{dist: "dC,h", index: "linear", store: t.TempDir()}, ":0"); err == nil {
		t.Error("-shard-server with -store should fail")
	}
	if _, err := buildShardServer(shardServerOpts{dist: "no-such", index: "linear"}, ":0"); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, err := buildCoordinator(coordinatorOpts{corpusPath: corpus, dist: "dC,h"}, ":0"); err == nil {
		t.Error("-coordinator without -shards-at should fail")
	}
	if _, err := buildCoordinator(coordinatorOpts{shardsAt: "http://x", dist: "dC,h"}, ":0"); err == nil {
		t.Error("-coordinator without a corpus should fail")
	}
	if _, err := buildCoordinator(coordinatorOpts{shardsAt: "http://x", corpusPath: corpus, sample: 5, dist: "dC,h"}, ":0"); err == nil {
		t.Error("-corpus and -sample together should fail")
	}
}

// TestRunServerGracefulShutdown pins the serving loop every mode shares:
// the server comes up, accepts a connection, and a SIGTERM drains it to a
// clean nil return instead of the old log.Fatal(http.ListenAndServe(...)).
func TestRunServerGracefulShutdown(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	done := make(chan error, 1)
	go func() { done <- runServer(addr, http.NotFoundHandler(), nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

// TestRunServerDrainsInFlightUnderLoad extends the graceful-shutdown pin
// to the overload story: a SIGTERM that arrives while a slow query is in
// flight must let that query finish (200, full body), refuse new queries
// immediately, and run the snapshot drain hook only after the in-flight
// work completed — the e2e shape of "drains don't drop acknowledged work,
// and drains don't wait for work that hasn't been admitted".
func TestRunServerDrainsInFlightUnderLoad(t *testing.T) {
	srv, _, err := build(buildOpts{sample: 200, dist: "dC,h", index: "linear", cache: -1, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Make /knn observably slow so the test can interleave a SIGTERM with
	// an admitted query, the way a drain under real load would.
	var inFlight atomic.Int32
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/knn" {
			inFlight.Add(1)
			time.Sleep(300 * time.Millisecond)
		}
		srv.Handler().ServeHTTP(w, r)
	})
	var drained atomic.Bool
	drain := func() { drained.Store(true) }

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	done := make(chan error, 1)
	go func() { done <- runServer(addr, slow, drain) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Launch the slow query and wait until the handler has admitted it.
	type result struct {
		code int
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/knn", "application/json",
			strings.NewReader(`{"query":"hola","k":3}`))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		resCh <- result{resp.StatusCode, nil}
	}()
	for inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// New queries are refused the moment shutdown starts, while the
	// in-flight one is still sleeping in the handler.
	time.Sleep(100 * time.Millisecond)
	if drained.Load() {
		t.Fatal("drain hook ran while a query was still in flight")
	}
	if _, err := http.Post("http://"+addr+"/knn", "application/json",
		strings.NewReader(`{"query":"hola","k":3}`)); err == nil {
		t.Fatal("a new query was admitted after SIGTERM")
	}

	// The admitted query completes normally and only then does the server
	// exit, having run the drain hook.
	select {
	case r := <-resCh:
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("in-flight query during drain: code=%d err=%v", r.code, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain under load returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after draining")
	}
	if !drained.Load() {
		t.Fatal("snapshot drain hook never ran")
	}
}

func TestBuildSampleCorpus(t *testing.T) {
	srv, info, err := build(buildOpts{sample: 500, dist: "dC,h", index: "laesa", pivots: 8, buildWorkers: 2, cache: -1, seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if info.CorpusSize != 500 || info.Labelled {
		t.Fatalf("info = %+v", info)
	}
	// The generated dictionary is unlabelled: classify must refuse.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := post(t, ts.URL+"/classify", `{"query":"hola"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("/classify on unlabelled corpus: status = %d", code)
	}
	if code := post(t, ts.URL+"/knn", `{"query":"hola","k":1}`, nil); code != http.StatusOK {
		t.Fatalf("/knn status = %d", code)
	}
}

// TestStoreSnapshotColdStart drives the durable-store path at the flag
// level: serve a corpus with -store DIR and -snapshot-every, mutate past
// the threshold, then cold-start a second server from the store with
// -load-snapshot and require the mutations (including a tombstone) back.
func TestStoreSnapshotColdStart(t *testing.T) {
	corpus := writeCorpus(t)
	dir := t.TempDir()
	srv, info, err := build(buildOpts{
		corpusPath: corpus, dist: "dC,h", index: "laesa", pivots: 4,
		seed: 1, shards: 4, store: dir, snapshotEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.CorpusSize != 8 {
		t.Fatalf("info = %+v", info)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var add struct {
		ID uint64 `json:"id"`
	}
	if code := post(t, ts.URL+"/add", `{"value":"gatita","label":3}`, &add); code != http.StatusOK {
		t.Fatal("/add failed")
	}
	if code := post(t, ts.URL+"/delete", `{"id":0}`, nil); code != http.StatusOK {
		t.Fatal("/delete failed")
	}
	// Two mutations crossed -snapshot-every=2; the drain hook cedserve
	// runs at shutdown guarantees the background snapshot is durable.
	srv.WaitSnapshots()
	if info := srv.Info(); info.Snapshot.LastSeq == 0 || info.Snapshot.LastError != "" {
		t.Fatalf("background snapshot never landed: %+v", info.Snapshot)
	}

	cold, coldInfo, err := build(buildOpts{
		dist: "dC,h", index: "laesa", pivots: 4, seed: 1,
		store: dir, loadSnapshot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coldInfo.CorpusSize != 8 || !coldInfo.Labelled {
		t.Fatalf("cold-start info = %+v", coldInfo)
	}
	ts2 := httptest.NewServer(cold.Handler())
	defer ts2.Close()
	var k struct {
		Results []struct {
			Index int    `json:"index"`
			Value string `json:"value"`
		} `json:"results"`
	}
	if code := post(t, ts2.URL+"/knn", `{"query":"gatita","k":1}`, &k); code != http.StatusOK {
		t.Fatal("/knn failed on cold start")
	}
	if len(k.Results) != 1 || k.Results[0].Value != "gatita" || k.Results[0].Index != int(add.ID) {
		t.Fatalf("restored mutation missing: %+v", k)
	}
	if code := post(t, ts2.URL+"/delete", `{"id":0}`, nil); code != http.StatusNotFound {
		t.Error("tombstone for id 0 not restored")
	}

	// Flag validation around the store.
	if _, _, err := build(buildOpts{
		corpusPath: corpus, dist: "dC,h", index: "laesa", snapshotEvery: 4,
	}); err == nil {
		t.Error("-snapshot-every without -store should fail")
	}
	if _, _, err := build(buildOpts{
		dist: "dC,h", index: "laesa", store: t.TempDir(), loadSnapshot: true,
	}); err == nil {
		t.Error("-load-snapshot from an empty store should fail")
	}
}
