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

// Corpus is what the client endpoints serve: a single Engine or a cluster
// coordinator (internal/remote). Query answers the k nearest live
// elements or every element within a radius, closest first (ties by ID);
// Add mints the new element's stable ID; Delete reports whether the ID
// was live; Size is the live element count.
type Corpus interface {
	Query(ctx context.Context, q string, req search.Request) ([]shard.Hit, Stats, error)
	Add(ctx context.Context, value string, label int) (uint64, error)
	Delete(ctx context.Context, id uint64) (bool, error)
	Size() int
	Labelled() bool
}

// Degraded is the error a coordinator's degraded-mode fan-out attaches to
// a partial answer: the listed logical shards contributed nothing (every
// replica unusable), every other shard's hits are present and exact. A
// single server never degrades. The client endpoints answer it as a 200
// tagged "degraded": true with the missing-shard list, never as a silent
// success.
type Degraded struct {
	MissingShards []int
}

func (e *Degraded) Error() string {
	return fmt.Sprintf("degraded answer: shards %v unavailable", e.MissingShards)
}

// partial reports whether err only tags a partial answer, returning the
// response metadata that says so.
func partial(err error) (degradedMeta, bool) {
	var d *Degraded
	if !errors.As(err, &d) {
		return degradedMeta{}, false
	}
	return degradedMeta{Degraded: true, MissingShards: d.MissingShards}, true
}

// NewMux returns a mux serving the client endpoints a single server and a
// cluster coordinator both answer, over c, through the front door g:
//
//	POST /knn       {"query": ..., "k": ...}
//	POST /radius    {"query": ..., "radius": ...}
//	POST /classify  {"query": ...}
//	POST /add       {"value": ..., "label": ...}
//	POST /delete    {"id": ...}
//
// The query endpoints run through g.Query (admission control and the
// cancellable budget context); the mutations run ungated. Every query
// response carries the computations spent and the server-side latency;
// the mutation endpoints return the element's stable ID and the live
// corpus size. A client moves from one server to a coordinator by
// changing only the URL.
func NewMux(c Corpus, g *Gate) *http.ServeMux {
	mux := http.NewServeMux()
	// answer serves the single-query search endpoints.
	answer := func(ctx context.Context, w http.ResponseWriter, q string, req search.Request) {
		start := time.Now()
		hits, st, err := c.Query(ctx, q, req)
		dm, ok := partial(err)
		if err != nil && !ok {
			g.Fail(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, knnResponse{Results: Neighbors(hits), queryMeta: meta(st, start), degradedMeta: dm})
	}
	mux.HandleFunc("POST /knn", g.Query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req knnRequest
		if DecodeJSON(w, r, maxBodyBytes, &req) {
			answer(ctx, w, req.Query, search.KNN(req.K, math.Inf(1)))
		}
	}))
	mux.HandleFunc("POST /radius", g.Query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req radiusRequest
		if DecodeJSON(w, r, maxBodyBytes, &req) {
			answer(ctx, w, req.Query, search.Within(req.Radius))
		}
	}))
	mux.HandleFunc("POST /classify", g.Query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req classifyRequest
		if !DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		start := time.Now()
		p, st, err := Classify(ctx, c, req.Query)
		dm, ok := partial(err)
		if err != nil && !ok {
			g.Fail(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, classifyResponse{Prediction: p, queryMeta: meta(st, start), degradedMeta: dm})
	}))
	mux.HandleFunc("POST /add", func(w http.ResponseWriter, r *http.Request) {
		var req addRequest
		if !DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		if req.Value == nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("add needs a \"value\" field"))
			return
		}
		if c.Labelled() && req.Label == nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("the corpus is labelled; add needs a \"label\" field"))
			return
		}
		label := 0
		if req.Label != nil {
			label = *req.Label
		}
		id, err := c.Add(r.Context(), *req.Value, label)
		if err != nil {
			g.Fail(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, mutateResponse{ID: id, Size: c.Size()})
	})
	mux.HandleFunc("POST /delete", func(w http.ResponseWriter, r *http.Request) {
		var req deleteRequest
		if !DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		if req.ID == nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("delete needs an \"id\" field"))
			return
		}
		deleted, err := c.Delete(r.Context(), *req.ID)
		if err != nil {
			g.Fail(w, err)
			return
		}
		if !deleted {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no live element with id %d", *req.ID))
			return
		}
		WriteJSON(w, http.StatusOK, mutateResponse{ID: *req.ID, Size: c.Size()})
	})
	return mux
}

// NewHandler wraps an engine in the cedserve JSON API: the client
// endpoints of NewMux plus the ones only a single server offers:
//
//	GET  /healthz            liveness + engine/cache/shard statistics
//	POST /distance           {"a": ..., "b": ...}
//	POST /distance/batch     {"pairs": [{"a": ..., "b": ...}, ...]}
//	POST /knn/batch          {"queries": [...], "k": ...}
//	POST /classify/batch     {"queries": [...]}
//	POST /snapshot/save      (no body; publishes a snapshot to the store)
//	POST /snapshot/load      (no body; swaps the newest one back in)
//
// The distance and batch endpoints run through the engine's gate like the
// single queries; the snapshot endpoints read and write only the blob
// store fixed at startup (cedserve -store), never a client-supplied
// location.
func NewHandler(e *Engine) http.Handler {
	g := e.gate
	mux := NewMux(e, g)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, healthResponse{Status: "ok", Info: e.Info()})
	})
	mux.HandleFunc("POST /distance", g.Query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req distanceRequest
		if !DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		start := time.Now()
		d, st := e.Distance(req.A, req.B)
		WriteJSON(w, http.StatusOK, distanceResponse{
			Metric: e.m.Name(), Distance: d, queryMeta: meta(st, start),
		})
	}))
	mux.HandleFunc("POST /distance/batch", g.Query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req batchDistanceRequest
		if !DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		start := time.Now()
		ds, st, err := e.BatchDistanceCtx(ctx, req.Pairs)
		if err != nil {
			g.Fail(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, batchDistanceResponse{
			Metric: e.m.Name(), Distances: ds, queryMeta: meta(st, start),
		})
	}))
	mux.HandleFunc("POST /knn/batch", g.Query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req batchKNNRequest
		if !DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		start := time.Now()
		ns, st, err := e.BatchKNearestCtx(ctx, req.Queries, req.K)
		if err != nil {
			g.Fail(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, batchKNNResponse{Results: ns, queryMeta: meta(st, start)})
	}))
	mux.HandleFunc("POST /classify/batch", g.Query(func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		var req batchClassifyRequest
		if !DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		start := time.Now()
		ps, st, err := e.BatchClassifyCtx(ctx, req.Queries)
		if err != nil {
			g.Fail(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, batchClassifyResponse{Results: ps, queryMeta: meta(st, start)})
	}))
	mux.HandleFunc("POST /snapshot/save", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !e.StoreConfigured() {
			WriteError(w, http.StatusBadRequest, errNoStore)
			return
		}
		stats, err := e.SaveToStore(r.Context())
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		WriteJSON(w, http.StatusOK, snapshotResponse{
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
			WriteError(w, http.StatusBadRequest, errNoStore)
			return
		}
		size, err := e.LoadFromStore(r.Context())
		switch {
		case errors.Is(err, shard.ErrNoSnapshot):
			WriteError(w, http.StatusNotFound, err)
			return
		case err != nil:
			// A store that holds snapshots but cannot serve one — torn or
			// corrupt, too new, saved under another metric or index, or
			// unreachable — is a server-side fault, not a missing resource.
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		WriteJSON(w, http.StatusOK, snapshotResponse{
			Seq: e.Info().Snapshot.LastSeq, Size: size,
			LatencyMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
	})
	return mux
}

// errNoStore answers the /snapshot endpoints of a server started without a
// blob store.
var errNoStore = errors.New("the server was started without a snapshot store (cedserve -store)")

// Request bodies.
type (
	knnRequest struct {
		Query string `json:"query"`
		K     int    `json:"k"`
	}
	radiusRequest struct {
		Query  string  `json:"query"`
		Radius float64 `json:"radius"`
	}
	classifyRequest struct {
		Query string `json:"query"`
	}
	// addRequest uses pointers so a missing field is distinguishable from
	// the zero value: an empty string is a legal corpus element, and a
	// labelled corpus must reject unlabelled adds rather than default to
	// class 0.
	addRequest struct {
		Value *string `json:"value"`
		Label *int    `json:"label"`
	}
	deleteRequest struct {
		ID *uint64 `json:"id"`
	}
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

// Response bodies.
type (
	// queryMeta carries the per-request metrics embedded in every query
	// response.
	queryMeta struct {
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
	// degradedMeta tags a partial answer a coordinator served under
	// AllowDegraded: the named logical shards contributed nothing. The
	// fields are omitted on every complete answer.
	degradedMeta struct {
		Degraded      bool  `json:"degraded,omitempty"`
		MissingShards []int `json:"missing_shards,omitempty"`
	}
	knnResponse struct {
		Results []Neighbor `json:"results"`
		queryMeta
		degradedMeta
	}
	classifyResponse struct {
		Prediction
		queryMeta
		degradedMeta
	}
	// mutateResponse answers /add and /delete: the element's stable ID and
	// the live corpus size after the mutation.
	mutateResponse struct {
		ID   uint64 `json:"id"`
		Size int    `json:"size"`
	}
	healthResponse struct {
		Status string `json:"status"`
		Info   Info   `json:"info"`
	}
	distanceResponse struct {
		Metric   string  `json:"metric"`
		Distance float64 `json:"distance"`
		queryMeta
	}
	batchDistanceResponse struct {
		Metric    string    `json:"metric"`
		Distances []float64 `json:"distances"`
		queryMeta
	}
	batchKNNResponse struct {
		Results [][]Neighbor `json:"results"`
		queryMeta
	}
	batchClassifyResponse struct {
		Results []Prediction `json:"results"`
		queryMeta
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

// meta builds the query metadata for a request that started at start and
// spent st.
func meta(st Stats, start time.Time) queryMeta {
	return queryMeta{
		Computations: st.Computations,
		Rejections:   stageRejections(st.Rejections),
		LatencyMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
}

// ErrorResponse is the body of every error answer, on the client routes
// and on the shard transport alike.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DecodeJSON parses a JSON request body of at most limit bytes into dst,
// rejecting unknown fields. On failure it writes the error response (413
// for an oversized body, 400 otherwise) and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteError(w, status, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

// WriteError answers status with err's message as an ErrorResponse.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// WriteJSON answers status with body encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding these response types cannot fail; a broken connection is
	// the client's problem and surfaces in the server error log.
	_ = json.NewEncoder(w).Encode(body)
}
