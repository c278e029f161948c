package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// TestRemoteKNNBoundedMatchesLocal pins the transport to the in-process
// seam: for random queries, ks and bounds, a slot served over HTTP must
// return exactly the hits AND the work accounting of the same single-shard
// set queried locally — the wire adds latency, never a different answer.
func TestRemoteKNNBoundedMatchesLocal(t *testing.T) {
	d := dataset.Spanish(150, 5)
	m := metric.Contextual()
	build, err := shard.StandardBuild("linear", m, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	elems := make([]shard.Element, len(d.Strings))
	for i, v := range d.Strings {
		elems[i] = shard.Element{ID: uint64(i), Value: v}
	}
	local, err := shard.NewFromElements(elems, false, shard.Config{
		Shards: 1, Metric: m, Build: build, Algorithm: "linear",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(ServerConfig{Metric: m, Algorithm: "linear", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{})
	ctx := context.Background()
	if err := cl.Seed(ctx, "dC", false, elems); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 80; i++ {
		q := d.Strings[rng.Intn(len(d.Strings))]
		if rng.Intn(2) == 0 {
			q += string(rune('a' + rng.Intn(26)))
		}
		k := 1 + rng.Intn(8)
		bound := math.Inf(1)
		if rng.Intn(2) == 0 {
			bound = rng.Float64()
		}
		gotHits, gotStats, err := cl.Query(ctx, q, search.KNN(k, bound))
		if err != nil {
			t.Fatalf("remote knn %q k=%d bound=%v: %v", q, k, bound, err)
		}
		wantHits, wantStats, err := local.Query(ctx, []rune(q), search.KNN(k, bound))
		if err != nil {
			t.Fatal(err)
		}
		if len(gotHits) != len(wantHits) {
			t.Fatalf("knn %q k=%d bound=%v: %d remote hits, %d local", q, k, bound, len(gotHits), len(wantHits))
		}
		for j := range gotHits {
			if gotHits[j] != wantHits[j] {
				t.Fatalf("knn %q k=%d bound=%v rank %d: remote %+v, local %+v",
					q, k, bound, j, gotHits[j], wantHits[j])
			}
		}
		if gotStats != wantStats {
			t.Fatalf("knn %q k=%d bound=%v: remote stats %+v, local %+v", q, k, bound, gotStats, wantStats)
		}
	}

	// The mutate surface must agree too: idempotent re-delivery, tombstone
	// semantics, dump content.
	if applied, _, err := cl.Add(ctx, shard.Element{ID: 150, Value: "nuevo"}); err != nil || !applied {
		t.Fatalf("add: applied=%v err=%v", applied, err)
	}
	if applied, _, err := cl.Add(ctx, shard.Element{ID: 150, Value: "nuevo"}); err != nil || applied {
		t.Fatalf("re-delivered add: applied=%v err=%v (want idempotent no-op)", applied, err)
	}
	if applied, _, err := cl.Delete(ctx, 150); err != nil || !applied {
		t.Fatalf("delete: applied=%v err=%v", applied, err)
	}
	if applied, _, err := cl.Add(ctx, shard.Element{ID: 150, Value: "nuevo"}); err != nil || applied {
		t.Fatalf("add of tombstoned ID: applied=%v err=%v (dead IDs must not resurrect)", applied, err)
	}
	info, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != len(elems) || info.Metric != "dC" || info.Algorithm != "linear" {
		t.Fatalf("slot info %+v", info)
	}
	_, dumped, err := cl.Dump(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumped) != len(elems) {
		t.Fatalf("dump has %d elements, want %d", len(dumped), len(elems))
	}
}

// TestShardServerRejectsMetricMismatch: a coordinator seeding a node that
// serves a different distance must be refused loudly — a mixed-metric
// cluster would silently break exactness.
func TestShardServerRejectsMetricMismatch(t *testing.T) {
	srv, err := NewShardServer(ServerConfig{Metric: metric.Contextual(), Algorithm: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{Retries: -1})
	err = cl.Seed(context.Background(), "dE", false, []shard.Element{{ID: 0, Value: "x"}})
	var verdict *serve.StatusError
	if !errors.As(err, &verdict) || verdict.Status != http.StatusConflict {
		t.Fatalf("mismatched seed returned %v, want HTTP 409", err)
	}
}

// callShard sends body to path on srv's shard transport and returns the
// recorded answer.
func callShard(srv *ShardServer, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestShardServerRejectsUnknownFields: a misspelled field is a 400, as on
// the client routes, never a default — a knn body whose bound is
// misspelled would otherwise run as if it sent none.
func TestShardServerRejectsUnknownFields(t *testing.T) {
	srv, err := NewShardServer(ServerConfig{Metric: metric.Levenshtein(), Algorithm: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.seed(0, false, []shard.Element{{ID: 0, Value: "casa"}, {ID: 1, Value: "cosa"}}); err != nil {
		t.Fatal(err)
	}
	if rec := callShard(srv, http.MethodPost, "/shard/0/knn", `{"query":"cas","k":2,"bund":-1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("misspelled bound: HTTP %d %s, want 400", rec.Code, rec.Body)
	}
	rec := callShard(srv, http.MethodPost, "/shard/0/knn", `{"query":"cas","k":2,"max_distance":null}`)
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || len(resp.Hits) != 2 {
		t.Fatalf("well-formed knn: HTTP %d %s (%v), want 200 with 2 hits", rec.Code, rec.Body, err)
	}
}

// TestShardKNNMaxDistance: the shard transport carries a k-NN pruning
// bound as a distance, with null or an absent key for +Inf, and a slot
// answers it with exactly the hits and work of the same local query. A
// request no client means, and a body that still names the retired
// "bound" key, answer 400.
func TestShardKNNMaxDistance(t *testing.T) {
	srv, err := NewShardServer(ServerConfig{Metric: metric.Contextual(), Algorithm: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	var elems []shard.Element
	for i, v := range []string{"casa", "cosa", "caso", "masa", "pasa", "queso", "gato"} {
		elems = append(elems, shard.Element{ID: uint64(i), Value: v})
	}
	if err := srv.seed(0, false, elems); err != nil {
		t.Fatal(err)
	}
	num := func(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
	for _, c := range []struct {
		body  string
		bound float64 // the local bound the answer must equal
	}{
		{`{"query":"cas","k":4}`, math.Inf(1)},
		{`{"query":"cas","k":4,"max_distance":null}`, math.Inf(1)},
		{`{"query":"cas","k":4,"max_distance":0}`, 0},
		{`{"query":"cas","k":4,"max_distance":0.25}`, 0.25},
		{`{"query":"cas","k":4,"max_distance":` + num(math.SmallestNonzeroFloat64) + `}`, math.SmallestNonzeroFloat64},
		{`{"query":"cas","k":4,"max_distance":` + num(math.MaxFloat64) + `}`, math.MaxFloat64},
	} {
		rec := callShard(srv, http.MethodPost, "/shard/0/knn", c.body)
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: HTTP %d %s (%v), want 200", c.body, rec.Code, rec.Body, err)
		}
		hits, st, err := srv.slot(0).Query(context.Background(), []rune("cas"), search.KNN(4, c.bound))
		if err != nil {
			t.Fatal(err)
		}
		got := shard.Stats{Computations: resp.Computations, Rejections: resp.Rejections}
		if !slices.Equal(resp.Hits, hits) || got != st {
			t.Fatalf("%s: hits %+v with %+v, local bound %v gives %+v with %+v", c.body, resp.Hits, got, c.bound, hits, st)
		}
	}
	for _, c := range []struct{ path, body string }{
		{"/shard/0/knn", `{"query":"cas","k":4,"max_distance":-1}`},
		{"/shard/0/knn", `{"query":"cas","k":0}`},
		{"/shard/0/knn", `{"query":"cas","k":4,"bound":-1}`},
		{"/shard/0/radius", `{"query":"cas","radius":-2}`},
	} {
		if rec := callShard(srv, http.MethodPost, c.path, c.body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: HTTP %d %s, want 400", c.path, c.body, rec.Code, rec.Body)
		}
	}
}

// TestShardServerRefusesMaxUint64ID: the allocator holds one past the
// largest ID, so ID 2^64−1 would wrap it to 0. Add and seed refuse that ID
// with 400, the slot's next ID stays put, and a live element still
// deletes.
func TestShardServerRefusesMaxUint64ID(t *testing.T) {
	srv, err := NewShardServer(ServerConfig{Metric: metric.Levenshtein(), Algorithm: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.seed(0, false, []shard.Element{{ID: 0, Value: "casa"}, {ID: 1, Value: "cosa"}}); err != nil {
		t.Fatal(err)
	}
	nextID := func() uint64 {
		rec := callShard(srv, http.MethodGet, "/shard/0/info", "")
		var info SlotInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("info: HTTP %d %s (%v)", rec.Code, rec.Body, err)
		}
		return info.NextID
	}
	for _, c := range []struct{ path, body string }{
		{"/shard/0/add", `{"id":18446744073709551615,"value":"x"}`},
		{"/shard/0/seed", `{"elements":[{"id":4,"value":"a"},{"id":18446744073709551615,"value":"b"}]}`},
	} {
		if rec := callShard(srv, http.MethodPost, c.path, c.body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: HTTP %d %s, want 400", c.path, c.body, rec.Code, rec.Body)
		}
		if got := nextID(); got != 2 {
			t.Fatalf("after %s: next_id = %d, want 2", c.path, got)
		}
	}
	rec := callShard(srv, http.MethodPost, "/shard/0/delete", `{"id":1}`)
	var resp mutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || !resp.Applied {
		t.Fatalf("delete of a live element: HTTP %d %s (%v), want applied", rec.Code, rec.Body, err)
	}
}

// TestShardServerIndexKinds: a slot serves only what its metric can
// answer exactly — the bktree needs dE — and only the kinds of
// shard.Kinds, so the retired trie is refused under any metric.
func TestShardServerIndexKinds(t *testing.T) {
	for _, tc := range []struct {
		m         metric.Metric
		algorithm string
		ok        bool
	}{
		{metric.ContextualHeuristic(), "trie", false},
		{metric.ContextualHeuristic(), "bktree", false},
		{metric.Levenshtein(), "trie", false},
		{metric.Levenshtein(), "bktree", true},
	} {
		_, err := NewShardServer(ServerConfig{Metric: tc.m, Algorithm: tc.algorithm})
		if (err == nil) != tc.ok {
			t.Errorf("%s under %s: err = %v, want accepted = %v", tc.algorithm, tc.m.Name(), err, tc.ok)
		}
	}
}

func infoHandler(body string, hook func() (handled bool, status int)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil {
			if handled, status := hook(); handled {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(status)
				_, _ = w.Write([]byte(`{"error":"injected"}`))
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(body))
	})
}

const slotInfoBody = `{"metric":"dC","algorithm":"linear","labelled":false,"size":3,"next_id":3}`

// TestClientRetriesTransientFailures: 5xx responses retry up to the budget
// with backoff, and a later success wins.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(infoHandler(slotInfoBody, func() (bool, int) {
		return calls.Add(1) <= 2, http.StatusInternalServerError
	}))
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{Retries: 2, Backoff: time.Millisecond})
	info, err := cl.Info(context.Background())
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if info.Size != 3 {
		t.Fatalf("unexpected payload: %+v", info)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + 1 success)", got)
	}
}

// TestClientDoesNotRetryClientErrors: a 4xx is the server's considered
// answer; retrying cannot change it and must not happen.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(infoHandler(slotInfoBody, func() (bool, int) {
		calls.Add(1)
		return true, http.StatusNotFound
	}))
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{Retries: 3, Backoff: time.Millisecond})
	_, err := cl.Info(context.Background())
	var verdict *serve.StatusError
	if !errors.As(err, &verdict) || verdict.Status != http.StatusNotFound {
		t.Fatalf("got %v, want a 404 serve.StatusError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (4xx must not retry)", got)
	}
}

// TestClientTimeoutBoundsHangingServer: each attempt is cut at the
// per-attempt timeout, the retry budget stays bounded, and the total call
// time is attempts x timeout plus backoff — not forever.
func TestClientTimeoutBoundsHangingServer(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-r.Context().Done()
	}))
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{Timeout: 50 * time.Millisecond, Retries: 1, Backoff: time.Millisecond})
	start := time.Now()
	_, err := cl.Info(context.Background())
	if err == nil {
		t.Fatal("hanging server produced a successful call")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded call took %v", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (1 + 1 retry)", got)
	}
}

// TestClientRetriesTruncatedResponse: a connection cut mid-body is
// transient and retries.
func TestClientRetriesTruncatedResponse(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Length", "512") // promise more than we send
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"metric":"dC"`))
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(slotInfoBody))
	}))
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{Retries: 2, Backoff: time.Millisecond})
	info, err := cl.Info(context.Background())
	if err != nil {
		t.Fatalf("truncated-then-healthy call failed: %v", err)
	}
	if info.Size != 3 || calls.Load() != 2 {
		t.Fatalf("info %+v after %d calls, want size 3 after 2", info, calls.Load())
	}
}

// TestClientFailsOversizedResponseOnce: a response past the body limit
// fails on the first attempt with an error that names the limit. The
// server would only send the same body again, so a retry would download it
// again for nothing. The attempt timeout is a minute, so a loaded machine
// (the race detector, say) reads the whole 64 MiB body within one attempt:
// under the 2 s default a slow read timed out and retried.
func TestClientFailsOversizedResponseOnce(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		chunk := bytes.Repeat([]byte(" "), 1<<20)
		for range maxBodyBytes / len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		_, _ = w.Write([]byte(" "))
	}))
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{Timeout: time.Minute, Retries: 2, Backoff: time.Millisecond})
	_, _, err := cl.Dump(context.Background())
	if err == nil || !strings.Contains(err.Error(), "64 MiB") {
		t.Fatalf("oversized dump: err = %v, want one naming the 64 MiB limit", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (an oversized body must not retry)", got)
	}
}

// TestClientHonoursContextCancellation: a cancelled context stops the
// retry loop immediately (the coordinator cancels hedged losers this way).
func TestClientHonoursContextCancellation(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer hs.Close()
	cl := NewClient(hs.URL, 0, ClientConfig{Timeout: 10 * time.Second, Retries: 5})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Info(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled call succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled call did not return")
	}
}
