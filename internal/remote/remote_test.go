package remote

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
	"ced/internal/shard"
)

// TestWireBoundRoundTrip is the property behind the request-scoped pruning
// radius: every legal bound survives the wire encoding exactly, +Inf maps
// through the negative sentinel, and any negative wire value decodes to
// unbounded — so a decoding mistake can only ever loosen the bound, which
// the bounded k-NN contract (search.KNN) tolerates by construction.
func TestWireBoundRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		b := rng.Float64() * 2
		if got := fromWireBound(wireBound(b)); got != b {
			t.Fatalf("bound %v round-tripped to %v", b, got)
		}
		if wireBound(b) < 0 {
			t.Fatalf("finite bound %v encoded to the unbounded sentinel", b)
		}
	}
	if got := fromWireBound(wireBound(math.Inf(1))); !math.IsInf(got, 1) {
		t.Fatalf("+Inf round-tripped to %v", got)
	}
	for _, w := range []float64{-1, -0.5, -1e9} {
		if got := fromWireBound(w); !math.IsInf(got, 1) {
			t.Fatalf("negative wire bound %v decoded to %v, want +Inf", w, got)
		}
	}
	if got := fromWireBound(wireBound(0)); got != 0 {
		t.Fatalf("zero bound round-tripped to %v", got)
	}
}

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
	var api *apiError
	if !errors.As(err, &api) || api.status != http.StatusConflict {
		t.Fatalf("mismatched seed returned %v, want HTTP 409", err)
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
	var api *apiError
	if !errors.As(err, &api) || api.status != http.StatusNotFound {
		t.Fatalf("got %v, want a 404 apiError", err)
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
