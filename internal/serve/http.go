package serve

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
	"ced/internal/shard"
)

// maxBodyBytes bounds request bodies: batch requests are the largest
// legitimate payloads, and 8 MiB holds ~100k average word pairs.
const maxBodyBytes = 8 << 20

// BudgetHeader carries a request's remaining deadline budget in whole
// milliseconds. Coordinators stamp it on every shard call with their
// context's remaining time, so the deadline a client set at the edge
// propagates across hops; single-node clients can set it directly. The
// server clamps the value to [1ms, MaxBudget] — a remote caller cannot
// pin a computation for longer than the server is willing to spend.
const BudgetHeader = "Ced-Budget-Ms"

// MaxBudget is the server-side clamp on BudgetHeader: the longest
// deadline a request header can impose.
const MaxBudget = 60 * time.Second

// StatusClientClosedRequest is the (de facto standard, nginx-originated)
// status for a query abandoned by its client: the work was cancelled
// cooperatively, nothing was computed to completion, and the code mostly
// matters for the server's own access logs and counters.
const StatusClientClosedRequest = 499

// RequestContext derives the query context for a handler: the request's
// own context (cancelled by client disconnect and server shutdown) plus
// the clamped BudgetHeader deadline when one was sent. The CancelFunc must
// be called when the handler returns.
func RequestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	h := r.Header.Get(BudgetHeader)
	if h == "" {
		return context.WithCancel(ctx)
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 1 {
		ms = 1 // a malformed or exhausted budget fails fast, not open
	}
	d := time.Duration(ms) * time.Millisecond
	if d > MaxBudget {
		d = MaxBudget
	}
	return context.WithTimeout(ctx, d)
}

// writeQueryError maps a failed query to its status code: shed load is 429
// with a Retry-After hint, a client that vanished is 499, an exhausted
// deadline budget is 504, anything else is the caller's fault (400). The
// cancellation outcomes are folded into the engine's /healthz counters.
func writeQueryError(e *Engine, w http.ResponseWriter, err error) {
	e.NoteQueryError(err)
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(e.gate.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.Canceled):
		writeError(w, StatusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// NewHandler wraps an engine in the cedserve JSON API:
//
//	GET  /healthz            liveness + engine/cache/shard statistics
//	POST /distance           {"a": ..., "b": ...}
//	POST /distance/batch     {"pairs": [{"a": ..., "b": ...}, ...]}
//	POST /knn                {"query": ..., "k": ...}
//	POST /knn/batch          {"queries": [...], "k": ...}
//	POST /radius             {"query": ..., "radius": ...}
//	POST /classify           {"query": ...}
//	POST /classify/batch     {"queries": [...]}
//	POST /add                {"value": ..., "label": ...}
//	POST /delete             {"id": ...}
//	POST /snapshot/save      (no body; publishes a snapshot to the store)
//	POST /snapshot/load      (no body; swaps the newest one back in)
//
// Every query response carries the number of distance computations spent
// and the server-side latency in milliseconds, so clients can monitor
// index effectiveness per request. The mutation endpoints return the
// element's stable ID (Add) and the live corpus size; the snapshot
// endpoints read and write only the blob store fixed at startup (cedserve
// -store), never a client-supplied location.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	// query wraps the search/distance endpoints in the robustness layer:
	// admission control (a saturating flood is shed with 429 + Retry-After
	// instead of queueing unboundedly) and the cancellable query context
	// (client disconnect, server shutdown, BudgetHeader deadline). The
	// health, mutation and snapshot endpoints stay ungated — health checks
	// and drains must succeed exactly when the server is saturated.
	query := func(h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if err := e.gate.Acquire(r.Context()); err != nil {
				writeQueryError(e, w, err)
				return
			}
			defer e.gate.Release()
			ctx, cancel := RequestContext(r)
			defer cancel()
			h(ctx, w, r)
		}
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Info: e.Info()})
	})
	mux.HandleFunc("POST /distance", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req distanceRequest
		if !decode(w, r, &req) {
			return
		}
		start := time.Now()
		d, st := e.Distance(req.A, req.B)
		writeJSON(w, http.StatusOK, distanceResponse{
			Metric: e.m.Name(), Distance: d, QueryMeta: Meta(st, start),
		})
	}))
	mux.HandleFunc("POST /distance/batch", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req batchDistanceRequest
		if !decode(w, r, &req) {
			return
		}
		start := time.Now()
		ds, st, err := e.BatchDistanceCtx(ctx, req.Pairs)
		if err != nil {
			writeQueryError(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, batchDistanceResponse{
			Metric: e.m.Name(), Distances: ds, QueryMeta: Meta(st, start),
		})
	}))
	// answer serves the single-query search endpoints.
	answer := func(ctx context.Context, w http.ResponseWriter, q string, req search.Request) {
		start := time.Now()
		ns, st, err := e.Query(ctx, q, req)
		if err != nil {
			writeQueryError(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, KNNResponse{Results: ns, QueryMeta: Meta(st, start)})
	}
	mux.HandleFunc("POST /knn", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req KNNRequest
		if decode(w, r, &req) {
			answer(ctx, w, req.Query, search.KNN(req.K, math.Inf(1)))
		}
	}))
	mux.HandleFunc("POST /knn/batch", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req batchKNNRequest
		if !decode(w, r, &req) {
			return
		}
		start := time.Now()
		ns, st, err := e.BatchKNearestCtx(ctx, req.Queries, req.K)
		if err != nil {
			writeQueryError(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, batchKNNResponse{Results: ns, QueryMeta: Meta(st, start)})
	}))
	mux.HandleFunc("POST /radius", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req RadiusRequest
		if decode(w, r, &req) {
			answer(ctx, w, req.Query, search.Within(req.Radius))
		}
	}))
	mux.HandleFunc("POST /classify", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req ClassifyRequest
		if !decode(w, r, &req) {
			return
		}
		start := time.Now()
		p, st, err := e.ClassifyCtx(ctx, req.Query)
		if err != nil {
			writeQueryError(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, ClassifyResponse{Prediction: p, QueryMeta: Meta(st, start)})
	}))
	mux.HandleFunc("POST /classify/batch", query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req batchClassifyRequest
		if !decode(w, r, &req) {
			return
		}
		start := time.Now()
		ps, st, err := e.BatchClassifyCtx(ctx, req.Queries)
		if err != nil {
			writeQueryError(e, w, err)
			return
		}
		writeJSON(w, http.StatusOK, batchClassifyResponse{Results: ps, QueryMeta: Meta(st, start)})
	}))
	mux.HandleFunc("POST /add", func(w http.ResponseWriter, r *http.Request) {
		var req AddRequest
		if !decode(w, r, &req) {
			return
		}
		if req.Value == nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("add needs a \"value\" field"))
			return
		}
		if e.Labelled() && req.Label == nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("the corpus is labelled; add needs a \"label\" field"))
			return
		}
		label := 0
		if req.Label != nil {
			label = *req.Label
		}
		id, err := e.Add(*req.Value, label)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, MutateResponse{ID: id, Size: e.Info().CorpusSize})
	})
	mux.HandleFunc("POST /delete", func(w http.ResponseWriter, r *http.Request) {
		var req DeleteRequest
		if !decode(w, r, &req) {
			return
		}
		if req.ID == nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("delete needs an \"id\" field"))
			return
		}
		deleted, err := e.Delete(*req.ID)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if !deleted {
			writeError(w, http.StatusNotFound, fmt.Errorf("no live element with id %d", *req.ID))
			return
		}
		writeJSON(w, http.StatusOK, MutateResponse{ID: *req.ID, Size: e.Info().CorpusSize})
	})
	mux.HandleFunc("POST /snapshot/save", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !e.StoreConfigured() {
			writeError(w, http.StatusBadRequest, errNoStore)
			return
		}
		stats, err := e.SaveToStore(r.Context())
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, snapshotResponse{
			Seq: stats.Seq, Bytes: stats.BytesUploaded,
			Uploaded:  stats.BasesUploaded + stats.OvlsUploaded,
			Skipped:   stats.BasesSkipped + stats.OvlsSkipped,
			Size:      e.Info().CorpusSize,
			LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
	})
	mux.HandleFunc("POST /snapshot/load", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !e.StoreConfigured() {
			writeError(w, http.StatusBadRequest, errNoStore)
			return
		}
		size, err := e.LoadFromStore(r.Context())
		switch {
		case errors.Is(err, shard.ErrNoSnapshot):
			writeError(w, http.StatusNotFound, err)
			return
		case err != nil:
			// A store that holds snapshots but cannot serve one — torn or
			// corrupt, too new, saved under another metric or index, or
			// unreachable — is a server-side fault, not a missing resource.
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, snapshotResponse{
			Seq: e.Info().Snapshot.LastSeq, Size: size,
			LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
	})
	return mux
}

// errNoStore answers the /snapshot endpoints of a server started without a
// blob store.
var errNoStore = errors.New("the server was started without a snapshot store (cedserve -store)")

// Request bodies of the endpoints only a single server offers.
type (
	distanceRequest      struct{ A, B string }
	batchDistanceRequest struct {
		Pairs []Pair `json:"pairs"`
	}
	batchKNNRequest struct {
		Queries []string `json:"queries"`
		K       int      `json:"k"`
	}
	batchClassifyRequest struct {
		Queries []string `json:"queries"`
	}
)

// The client JSON API shared with the cluster coordinator
// (internal/remote): both decode these requests and encode these
// responses, so a client moves from one server to a coordinator by
// changing only the URL.
type (
	KNNRequest struct {
		Query string `json:"query"`
		K     int    `json:"k"`
	}
	RadiusRequest struct {
		Query  string  `json:"query"`
		Radius float64 `json:"radius"`
	}
	ClassifyRequest struct {
		Query string `json:"query"`
	}
	// AddRequest uses pointers so a missing field is distinguishable from
	// the zero value: an empty string is a legal corpus element, and a
	// labelled corpus must reject unlabelled adds rather than default to
	// class 0.
	AddRequest struct {
		Value *string `json:"value"`
		Label *int    `json:"label"`
	}
	DeleteRequest struct {
		ID *uint64 `json:"id"`
	}

	// QueryMeta carries the per-request metrics embedded in every query
	// response.
	QueryMeta struct {
		// Computations is the number of distance evaluations the request
		// spent — the paper's search-cost measure, summed over a batch.
		Computations int `json:"computations"`
		// Rejections breaks Computations out by the bound-ladder rung that
		// rejected a candidate early (see StageRejections); evaluations in
		// no bucket ran to completion. Always zero for the /distance
		// endpoints, which evaluate without a cutoff.
		Rejections StageRejections `json:"rejections"`
		// LatencyMS is the server-side handling time in milliseconds.
		LatencyMS float64 `json:"latency_ms"`
	}
	// DegradedMeta tags a partial answer a coordinator served under
	// AllowDegraded: the named logical shards contributed nothing. The
	// fields are omitted on every complete answer, and a single server
	// never degrades.
	DegradedMeta struct {
		Degraded      bool  `json:"degraded,omitempty"`
		MissingShards []int `json:"missing_shards,omitempty"`
	}
	KNNResponse struct {
		Results []Neighbor `json:"results"`
		QueryMeta
		DegradedMeta
	}
	ClassifyResponse struct {
		Prediction
		QueryMeta
		DegradedMeta
	}
	// MutateResponse answers /add and /delete: the element's stable ID and
	// the live corpus size after the mutation.
	MutateResponse struct {
		ID   uint64 `json:"id"`
		Size int    `json:"size"`
	}
)

// Meta builds the query metadata for a request that started at start and
// spent st.
func Meta(st Stats, start time.Time) QueryMeta {
	return QueryMeta{
		Computations: st.Computations,
		Rejections:   stageRejections(st.Rejections),
		LatencyMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
}

// Response bodies of the endpoints only a single server offers.
type (
	healthResponse struct {
		Status string `json:"status"`
		Info   Info   `json:"info"`
	}
	distanceResponse struct {
		Metric   string  `json:"metric"`
		Distance float64 `json:"distance"`
		QueryMeta
	}
	batchDistanceResponse struct {
		Metric    string    `json:"metric"`
		Distances []float64 `json:"distances"`
		QueryMeta
	}
	batchKNNResponse struct {
		Results [][]Neighbor `json:"results"`
		QueryMeta
	}
	batchClassifyResponse struct {
		Results []Prediction `json:"results"`
		QueryMeta
	}
	// snapshotResponse answers the /snapshot endpoints: the manifest
	// sequence plus, for saves, the incremental accounting (objects
	// uploaded vs skipped).
	snapshotResponse struct {
		Seq       uint64  `json:"seq,omitempty"`
		Uploaded  int     `json:"uploaded,omitempty"`
		Skipped   int     `json:"skipped,omitempty"`
		Bytes     int64   `json:"bytes,omitempty"`
		Size      int     `json:"size"`
		LatencyMS float64 `json:"latency_ms"`
	}
)

type errorResponse struct {
	Error string `json:"error"`
}

// decode parses a JSON request body into dst, rejecting unknown fields and
// oversized bodies. On failure it writes the error response and returns
// false.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding these response types cannot fail; a broken connection is
	// the client's problem and surfaces in the server error log.
	_ = json.NewEncoder(w).Encode(body)
}
