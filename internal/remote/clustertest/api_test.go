package clustertest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ced/internal/metric"
	"ced/internal/remote"
	"ced/internal/serve"
)

// apiCorpus is the small labelled corpus both servers of the status table
// hold; with 2 shards the coordinator places IDs 0-3 on shard 0 and 4-7 on
// shard 1.
var (
	apiCorpus = []string{"casa", "cosa", "caso", "masa", "gato", "gatos", "pato", "plato"}
	apiLabels = []int{0, 0, 0, 1, 1, 1, 0, 1}
)

// probe is one row of the status table: a request and the status (plus
// Retry-After, when set) it must answer with.
type probe struct {
	name       string
	method     string // "" means POST
	path, body string
	ctx        context.Context // nil means a live context
	status     int
	retryAfter string
}

// check sends p to h and pins its status and Retry-After header.
func check(t *testing.T, server string, h http.Handler, p probe) {
	t.Helper()
	method := p.method
	if method == "" {
		method = http.MethodPost
	}
	r := httptest.NewRequest(method, p.path, strings.NewReader(p.body))
	if p.ctx != nil {
		r = r.WithContext(p.ctx)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != p.status {
		t.Errorf("%s: %s: HTTP %d, want %d: %.200s", server, p.name, rec.Code, p.status, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != p.retryAfter {
		t.Errorf("%s: %s: Retry-After %q, want %q", server, p.name, got, p.retryAfter)
	}
}

// clientRows are the requests a single server and a coordinator over the
// same labelled corpus must answer alike.
func clientRows() []probe {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	cancel()
	return []probe{
		{name: "knn", path: "/knn", body: `{"query":"casa","k":2}`, status: http.StatusOK},
		{name: "knn with a huge k", path: "/knn", body: `{"query":"casa","k":9223372036854775807}`, status: http.StatusOK},
		{name: "radius", path: "/radius", body: `{"query":"casa","radius":0.5}`, status: http.StatusOK},
		{name: "classify", path: "/classify", body: `{"query":"gatito"}`, status: http.StatusOK},
		{name: "k = 0", path: "/knn", body: `{"query":"casa","k":0}`, status: http.StatusBadRequest},
		{name: "negative k", path: "/knn", body: `{"query":"casa","k":-3}`, status: http.StatusBadRequest},
		{name: "negative radius", path: "/radius", body: `{"query":"casa","radius":-1}`, status: http.StatusBadRequest},
		{name: "malformed body", path: "/knn", body: `{"query":`, status: http.StatusBadRequest},
		{name: "unknown field", path: "/classify", body: `{"query":"casa","qeury":"x"}`, status: http.StatusBadRequest},
		{name: "mistyped field", path: "/radius", body: `{"query":"casa","radius":"far"}`, status: http.StatusBadRequest},
		{name: "oversized body", path: "/knn", body: `{"query":"` + strings.Repeat("x", 8<<20) + `"}`, status: http.StatusRequestEntityTooLarge},
		{name: "GET on a POST route", method: http.MethodGet, path: "/knn", status: http.StatusMethodNotAllowed},
		{name: "add without a value", path: "/add", body: `{"label":1}`, status: http.StatusBadRequest},
		{name: "add without a label", path: "/add", body: `{"value":"nuevo"}`, status: http.StatusBadRequest},
		{name: "delete without an id", path: "/delete", body: `{}`, status: http.StatusBadRequest},
		{name: "delete an unknown id", path: "/delete", body: `{"id":999999}`, status: http.StatusNotFound},
		{name: "client gone", path: "/knn", body: `{"query":"casa","k":2}`, ctx: gone, status: serve.StatusClientClosedRequest},
		{name: "budget exhausted", path: "/classify", body: `{"query":"casa"}`, ctx: expired, status: http.StatusGatewayTimeout},
		{name: "add", path: "/add", body: `{"value":"nuevo","label":1}`, status: http.StatusOK},
	}
}

// emptyRows delete every element (the corpus plus the one the client rows
// added, ID 8), then query the emptied corpus.
func emptyRows() []probe {
	var rows []probe
	for id := 0; id <= len(apiCorpus); id++ {
		rows = append(rows, probe{name: fmt.Sprintf("delete %d", id), path: "/delete", body: fmt.Sprintf(`{"id":%d}`, id), status: http.StatusOK})
	}
	return append(rows,
		probe{name: "delete a deleted id", path: "/delete", body: `{"id":0}`, status: http.StatusNotFound},
		probe{name: "knn on an empty corpus", path: "/knn", body: `{"query":"casa","k":2}`, status: http.StatusOK},
		probe{name: "classify on an empty corpus", path: "/classify", body: `{"query":"casa"}`, status: http.StatusBadRequest},
	)
}

var unlabelledRow = probe{name: "classify unlabelled", path: "/classify", body: `{"query":"casa"}`, status: http.StatusBadRequest}

// shedRow is a query arriving while the only admission slot is held.
var shedRow = probe{name: "shed", path: "/knn", body: `{"query":"casa","k":2}`, status: http.StatusTooManyRequests, retryAfter: "7"}

// TestClientAPIStatus pins what every failure answers on both client
// surfaces — a single engine (serve.NewHandler) and a cluster coordinator
// (remote.NewCoordinatorHandler): the same rows answer the same statuses,
// and the cluster-only faults (a downed shard, an unseeded slot, a write
// with no live replica, degraded mode) answer theirs.
func TestClientAPIStatus(t *testing.T) {
	ctx := context.Background()
	engine := func(labels []int, algorithm string, m metric.Metric) (*serve.Engine, http.Handler) {
		e, err := serve.New(apiCorpus, labels, m, serve.Config{
			Algorithm: algorithm, Shards: 2,
			MaxInFlight: 1, MaxQueueWait: time.Millisecond, RetryAfter: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, serve.NewHandler(e)
	}

	t.Run("engine", func(t *testing.T) {
		e, h := engine(apiLabels, "linear", metric.Contextual())
		for _, p := range clientRows() {
			check(t, "engine", h, p)
		}
		if err := e.Gate().Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		check(t, "engine", h, shedRow)
		e.Gate().Release()
		for _, p := range emptyRows() {
			check(t, "engine", h, p)
		}
		_, h = engine(nil, "linear", metric.Contextual())
		check(t, "engine", h, unlabelledRow)
	})

	t.Run("coordinator", func(t *testing.T) {
		c := Start(t, Config{Nodes: 2, Shards: 2}, apiCorpus, apiLabels)
		// A coordinator of its own over the same nodes, with admission on.
		coord, err := remote.NewCoordinator(remote.Config{
			Nodes:  []string{c.Nodes[0].Srv.URL, c.Nodes[1].Srv.URL},
			Shards: 2, MetricName: "dC", Timeout: 10 * time.Second, Retries: -1,
			ProbeInterval: -1, BreakerCooldown: -1,
			MaxInFlight: 1, MaxQueueWait: time.Millisecond, RetryAfter: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		if err := coord.Seed(ctx, apiCorpus, apiLabels); err != nil {
			t.Fatal(err)
		}
		h := remote.NewCoordinatorHandler(coord)
		for _, p := range clientRows() {
			check(t, "coordinator", h, p)
		}

		// Hold the only slot with a query stuck on a hanging shard.
		c.Nodes[1].SetFault(FaultHang)
		held, release := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			r := httptest.NewRequest(http.MethodPost, "/knn", strings.NewReader(`{"query":"casa","k":2}`))
			h.ServeHTTP(httptest.NewRecorder(), r.WithContext(held))
		}()
		for c.Nodes[1].Faulted() == 0 {
			time.Sleep(time.Millisecond)
		}
		check(t, "coordinator", h, shedRow)
		release()
		<-done
		c.Heal()

		for _, p := range emptyRows() {
			check(t, "coordinator", h, p)
		}
		unlabelled := Start(t, Config{Nodes: 2, Shards: 2}, apiCorpus, nil)
		check(t, "coordinator", remote.NewCoordinatorHandler(unlabelled.Coord), unlabelledRow)
	})

	t.Run("cluster faults", func(t *testing.T) {
		c := Start(t, Config{Nodes: 2, Shards: 2, Timeout: 200 * time.Millisecond}, apiCorpus, apiLabels)
		h := remote.NewCoordinatorHandler(c.Coord)
		c.Nodes[1].SetFault(FaultDown)
		check(t, "cluster", h, probe{name: "knn with a shard down", path: "/knn", body: `{"query":"casa","k":2}`, status: http.StatusBadGateway})
		check(t, "cluster", h, probe{name: "classify with a shard down", path: "/classify", body: `{"query":"casa"}`, status: http.StatusBadGateway})
		c.Nodes[0].SetFault(FaultDown)
		check(t, "cluster", h, probe{name: "add with every node down", path: "/add", body: `{"value":"nuevo","label":1}`, status: http.StatusBadGateway})
		check(t, "cluster", h, probe{name: "delete with every node down", path: "/delete", body: `{"id":0}`, status: http.StatusBadGateway})

		c = Start(t, Config{Nodes: 2, Shards: 2, Timeout: 200 * time.Millisecond}, apiCorpus, apiLabels)
		c.Nodes[1].Restart(t)
		check(t, "cluster", remote.NewCoordinatorHandler(c.Coord),
			probe{name: "knn with an unseeded slot", path: "/knn", body: `{"query":"casa","k":2}`, status: http.StatusBadGateway})
	})

	t.Run("degraded", func(t *testing.T) {
		c := Start(t, Config{Nodes: 2, Shards: 2, Timeout: 200 * time.Millisecond, AllowDegraded: true}, apiCorpus, apiLabels)
		h := remote.NewCoordinatorHandler(c.Coord)
		c.Nodes[1].SetFault(FaultDown)
		check(t, "degraded", h, probe{name: "knn", path: "/knn", body: `{"query":"casa","k":2}`, status: http.StatusOK})
		check(t, "degraded", h, probe{name: "classify", path: "/classify", body: `{"query":"casa"}`, status: http.StatusOK})
		// Empty shard 0, the only one still answering: a partial answer
		// with nothing in it has no label to give.
		for id := 0; id < c.Coord.RangeWidth(); id++ {
			check(t, "degraded", h, probe{name: fmt.Sprintf("delete %d", id), path: "/delete", body: fmt.Sprintf(`{"id":%d}`, id), status: http.StatusOK})
		}
		check(t, "degraded", h, probe{name: "knn with no live answer", path: "/knn", body: `{"query":"casa","k":2}`, status: http.StatusOK})
		check(t, "degraded", h, probe{name: "classify with no live answer", path: "/classify", body: `{"query":"casa"}`, status: http.StatusBadGateway})
	})
}
