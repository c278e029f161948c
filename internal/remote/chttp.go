package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// maxCoordinatorBody bounds coordinator request bodies; client-facing
// queries are tiny, so this mirrors serve's ceiling rather than the bulky
// shard-transport one.
const maxCoordinatorBody = 8 << 20

// cHealthResponse is the coordinator's /healthz body. Every other body is
// serve's client JSON (serve.KNNRequest, serve.KNNResponse, ...), so a
// monolithic client retargets a coordinator by changing nothing but the
// URL. Neighbor indexes are the cluster-stable global IDs, exactly like
// the monolithic engine after mutations.
type cHealthResponse struct {
	Status  string      `json:"status"`
	Cluster ClusterInfo `json:"cluster"`
}

// cDegraded converts a (possibly nil) *Degraded tag into response metadata.
func cDegraded(deg *Degraded) serve.DegradedMeta {
	if deg == nil {
		return serve.DegradedMeta{}
	}
	return serve.DegradedMeta{Degraded: true, MissingShards: deg.MissingShards}
}

// NewCoordinatorHandler wraps a Coordinator in the client-facing cedserve
// JSON API:
//
//	GET  /healthz     cluster topology, hedge/retry counters, replica health
//	POST /knn         {"query": ..., "k": ...}
//	POST /radius      {"query": ..., "radius": ...}
//	POST /classify    {"query": ...}
//	POST /add         {"value": ..., "label": ...}
//	POST /delete      {"id": ...}
//	POST /compact     (no body)
//
// /healthz answers "ok" while every logical shard has at least one healthy
// replica and "degraded" otherwise (HTTP 200 either way — a degraded
// cluster still answers exactly through its fallback replicas as long as
// one non-stale replica per shard survives).
func NewCoordinatorHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	// query wraps the client-facing search endpoints in the same robustness
	// layer as the monolithic server: admission control (saturating load is
	// shed with 429 + Retry-After) and a cancellable query context carrying
	// the clamped BudgetHeader deadline — which then flows to every shard
	// call, so one edge deadline bounds the whole distributed fan-out.
	query := func(h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if err := c.gate.Acquire(r.Context()); err != nil {
				writeCoordinatorError(c, w, err)
				return
			}
			defer c.gate.Release()
			ctx, cancel := serve.RequestContext(r)
			defer cancel()
			h(ctx, w, r)
		}
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		info := c.Info()
		status := "ok"
		if !info.Healthy {
			status = "degraded"
		}
		writeJSON(w, http.StatusOK, cHealthResponse{Status: status, Cluster: info})
	})
	// answer serves the single-query search endpoints.
	answer := func(ctx context.Context, w http.ResponseWriter, q string, req search.Request) {
		start := time.Now()
		hits, st, err := c.Query(ctx, q, req)
		var deg *Degraded
		if err != nil && !errors.As(err, &deg) {
			writeCoordinatorError(c, w, err)
			return
		}
		writeJSON(w, http.StatusOK, serve.KNNResponse{
			Results: serve.Neighbors(hits), QueryMeta: serve.Meta(st, start), DegradedMeta: cDegraded(deg),
		})
	}
	mux.HandleFunc("POST /knn", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req serve.KNNRequest
		if decodeCoordinator(w, r, &req) {
			answer(ctx, w, req.Query, search.KNN(req.K, math.Inf(1)))
		}
	}))
	mux.HandleFunc("POST /radius", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req serve.RadiusRequest
		if decodeCoordinator(w, r, &req) {
			answer(ctx, w, req.Query, search.Within(req.Radius))
		}
	}))
	mux.HandleFunc("POST /classify", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req serve.ClassifyRequest
		if !decodeCoordinator(w, r, &req) {
			return
		}
		start := time.Now()
		hit, st, err := c.Classify(ctx, req.Query)
		var deg *Degraded
		if err != nil && !errors.As(err, &deg) {
			writeCoordinatorError(c, w, err)
			return
		}
		writeJSON(w, http.StatusOK, serve.ClassifyResponse{
			Prediction: serve.Prediction{Label: hit.Label, Neighbor: serve.Neighbors([]shard.Hit{hit})[0]},
			QueryMeta:  serve.Meta(st, start), DegradedMeta: cDegraded(deg),
		})
	}))
	mux.HandleFunc("POST /add", func(w http.ResponseWriter, r *http.Request) {
		var req serve.AddRequest
		if !decodeCoordinator(w, r, &req) {
			return
		}
		if req.Value == nil {
			writeRemoteError(w, http.StatusBadRequest, fmt.Errorf("add needs a \"value\" field"))
			return
		}
		if c.Labelled() && req.Label == nil {
			writeRemoteError(w, http.StatusBadRequest, fmt.Errorf("the corpus is labelled; add needs a \"label\" field"))
			return
		}
		label := 0
		if req.Label != nil {
			label = *req.Label
		}
		id, err := c.Add(r.Context(), *req.Value, label)
		if err != nil {
			writeCoordinatorError(c, w, err)
			return
		}
		size, _ := c.Size(r.Context()) // best effort; 0 when the probe fails
		writeJSON(w, http.StatusOK, serve.MutateResponse{ID: id, Size: size})
	})
	mux.HandleFunc("POST /delete", func(w http.ResponseWriter, r *http.Request) {
		var req serve.DeleteRequest
		if !decodeCoordinator(w, r, &req) {
			return
		}
		if req.ID == nil {
			writeRemoteError(w, http.StatusBadRequest, fmt.Errorf("delete needs an \"id\" field"))
			return
		}
		deleted, err := c.Delete(r.Context(), *req.ID)
		if err != nil {
			writeCoordinatorError(c, w, err)
			return
		}
		if !deleted {
			writeRemoteError(w, http.StatusNotFound, fmt.Errorf("no live element with id %d", *req.ID))
			return
		}
		size, _ := c.Size(r.Context())
		writeJSON(w, http.StatusOK, serve.MutateResponse{ID: *req.ID, Size: size})
	})
	mux.HandleFunc("POST /compact", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Compact(r.Context()); err != nil {
			writeCoordinatorError(c, w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})
	return mux
}

// decodeCoordinator parses a client-facing JSON body with serve's
// strictness: unknown fields rejected, oversized bodies capped.
func decodeCoordinator(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxCoordinatorBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeRemoteError(w, status, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

// writeCoordinatorError maps a coordinator failure to a status: shed load
// is 429 with a Retry-After hint, a vanished client is 499, an exhausted
// deadline budget is 504, caller mistakes (bad k, unlabelled classify) are
// 400s, shard-server rejections keep their status, and cluster faults
// (every replica of a shard down) are 502s — so clients and load balancers
// can tell "back off" from "you asked wrong" from "the cluster is hurt".
// Cancellation outcomes are folded into the coordinator's /healthz
// counters.
func writeCoordinatorError(c *Coordinator, w http.ResponseWriter, err error) {
	c.noteQueryError(err)
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(c.gate.RetryAfter()))
		writeRemoteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, context.Canceled):
		writeRemoteError(w, serve.StatusClientClosedRequest, err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		writeRemoteError(w, http.StatusGatewayTimeout, err)
		return
	}
	var bad *badRequestError
	if errors.As(err, &bad) {
		writeRemoteError(w, http.StatusBadRequest, err)
		return
	}
	var api *apiError
	if errors.As(err, &api) {
		writeRemoteError(w, api.status, err)
		return
	}
	writeRemoteError(w, http.StatusBadGateway, err)
}
