package remote

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"ced/internal/metric"
	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// maxBodyBytes bounds request and response bodies. Seed and dump payloads
// carry whole shard slices, and a dump reseeded into a recovering replica is
// the one re-sync path, so the ceiling is generous: it holds about two
// million dictionary words per slot. A shard worth more than this needs
// more logical shards, not a larger body.
const maxBodyBytes = 64 << 20

// ServerConfig assembles a ShardServer: the distance, index kind and build
// tuning every hosted slot shares. The zero Metric is invalid; everything
// else follows the serve.Config conventions.
type ServerConfig struct {
	Metric           metric.Metric
	Algorithm        string // index kind for slot base indexes ("" = laesa)
	Pivots           int    // LAESA pivot count (<= 0 = 16)
	Seed             int64  // index-construction seed, offset per slot
	BuildWorkers     int    // index-construction fan-out (<= 0 = all CPUs)
	CompactThreshold int    // per-slot compaction trigger (<= 0 = default)
}

// ShardServer hosts logical shard slots for a cluster coordinator: each
// slot is an independent single-shard shard.Set created when the
// coordinator seeds it, queried with a request-scoped pruning bound and
// mutated with coordinator-minted IDs. One process can host any number of
// slots, so a small fleet can carry many logical shards (replica r of shard
// s lives on node (s+r) mod N — the coordinator's placement, invisible
// here).
type ShardServer struct {
	cfg   ServerConfig
	mu    sync.RWMutex
	slots map[int]*shard.Set

	// gate maps slot-query errors to statuses and counts their
	// cancellation outcomes for /healthz; admission is off (the
	// coordinator's own gate admits). A climbing cancelled count is the
	// direct evidence that coordinator hedging (and client disconnects)
	// actually stop shard-side computation instead of letting abandoned
	// scans run to completion.
	gate *serve.Gate
}

// NewShardServer builds an empty shard host; slots appear when seeded. The
// index kind is one of shard.Kinds and must suit the metric (see
// shard.StandardBuild).
func NewShardServer(cfg ServerConfig) (*ShardServer, error) {
	if cfg.Metric == nil {
		return nil, fmt.Errorf("remote: nil metric")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "laesa"
	}
	// Resolve the builder once so a bad algorithm fails at startup, not at
	// the first seed.
	if _, err := shard.StandardBuild(cfg.Algorithm, cfg.Metric, cfg.Pivots, cfg.Seed, cfg.BuildWorkers); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return &ShardServer{
		cfg:   cfg,
		slots: make(map[int]*shard.Set),
		gate:  serve.NewGate(0, 0, 0),
	}, nil
}

// slot returns the seeded set for a slot index, or nil.
func (s *ShardServer) slot(idx int) *shard.Set {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.slots[idx]
}

// seed creates (or wholesale replaces — the re-sync path) slot idx.
func (s *ShardServer) seed(idx int, labelled bool, elems []shard.Element) error {
	// Offset the construction seed by the slot index so distinct slots draw
	// distinct but reproducible randomised choices, mirroring the
	// per-shard offset StandardBuild applies inside one set.
	build, err := shard.StandardBuild(s.cfg.Algorithm, s.cfg.Metric, s.cfg.Pivots,
		s.cfg.Seed+int64(idx), s.cfg.BuildWorkers)
	if err != nil {
		return err
	}
	set, err := shard.NewFromElements(elems, labelled, shard.Config{
		Shards:           1,
		Metric:           s.cfg.Metric,
		Build:            build,
		Algorithm:        s.cfg.Algorithm,
		CompactThreshold: s.cfg.CompactThreshold,
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.slots[idx] = set
	s.mu.Unlock()
	return nil
}

// Slots returns the currently seeded slot indexes and their live sizes.
func (s *ShardServer) Slots() map[int]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]int, len(s.slots))
	for idx, set := range s.slots {
		out[idx] = set.Size()
	}
	return out
}

// errNotSeeded marks requests against a slot the coordinator has not
// seeded; it maps to 404 so clients treat it as non-retryable.
var errNotSeeded = errors.New("slot not seeded")

// Handler returns the shard-transport JSON API:
//
//	POST /shard/{slot}/seed     {metric, labelled, elements}   create/replace the slot
//	POST /shard/{slot}/knn      {query, k, max_distance}       bounded k-NN (null: unbounded)
//	POST /shard/{slot}/radius   {query, radius}                range query
//	POST /shard/{slot}/add      {id, value, label}             idempotent replicated write
//	POST /shard/{slot}/delete   {id}                           idempotent replicated delete
//	POST /shard/{slot}/compact  (no body)                      fold delta+tombstones
//	GET  /shard/{slot}/info                                    slot identity + size
//	GET  /shard/{slot}/dump                                    full live content (re-sync)
//	GET  /healthz                                              node liveness + slot sizes
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		o := s.gate.Overload()
		serve.WriteJSON(w, http.StatusOK, struct {
			Status    string      `json:"status"`
			Metric    string      `json:"metric"`
			Slots     map[int]int `json:"slots"`
			Cancelled uint64      `json:"cancelled"`
			Deadline  uint64      `json:"deadline_exceeded"`
		}{"ok", s.cfg.Metric.Name(), s.Slots(), o.Cancelled, o.DeadlineExceeded})
	})
	mux.HandleFunc("POST /shard/{slot}/seed", s.withSlotIdx(func(w http.ResponseWriter, r *http.Request, idx int) {
		var req seedRequest
		if !serve.DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		if req.Metric != "" && req.Metric != s.cfg.Metric.Name() {
			serve.WriteError(w, http.StatusConflict,
				fmt.Errorf("metric mismatch: coordinator expects %q, this node serves %q", req.Metric, s.cfg.Metric.Name()))
			return
		}
		if err := s.seed(idx, req.Labelled, req.Elements); err != nil {
			serve.WriteError(w, http.StatusBadRequest, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, mutateResponse{Applied: true, Size: s.slot(idx).Size()})
	}))
	mux.HandleFunc("POST /shard/{slot}/knn", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req knnRequest
		if serve.DecodeJSON(w, r, maxBodyBytes, &req) {
			bound := math.Inf(1)
			if req.MaxDistance != nil {
				bound = *req.MaxDistance
			}
			s.query(w, r, set, req.Query, search.KNN(req.K, bound))
		}
	}))
	mux.HandleFunc("POST /shard/{slot}/radius", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req radiusRequest
		if serve.DecodeJSON(w, r, maxBodyBytes, &req) {
			s.query(w, r, set, req.Query, search.Within(req.Radius))
		}
	}))
	mux.HandleFunc("POST /shard/{slot}/add", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req addRequest
		if !serve.DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		if req.ID > shard.MaxID {
			serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("element ID %d exceeds the largest ID %d", req.ID, shard.MaxID))
			return
		}
		applied := set.AddWithID(req.ID, req.Value, req.Label)
		serve.WriteJSON(w, http.StatusOK, mutateResponse{Applied: applied, Size: set.Size()})
	}))
	mux.HandleFunc("POST /shard/{slot}/delete", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req deleteRequest
		if !serve.DecodeJSON(w, r, maxBodyBytes, &req) {
			return
		}
		applied := set.Delete(req.ID)
		serve.WriteJSON(w, http.StatusOK, mutateResponse{Applied: applied, Size: set.Size()})
	}))
	mux.HandleFunc("POST /shard/{slot}/compact", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		set.Compact()
		serve.WriteJSON(w, http.StatusOK, mutateResponse{Applied: true, Size: set.Size()})
	}))
	mux.HandleFunc("GET /shard/{slot}/info", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		serve.WriteJSON(w, http.StatusOK, SlotInfo{
			Metric:    s.cfg.Metric.Name(),
			Algorithm: set.Algorithm(),
			Labelled:  set.Labelled(),
			Size:      set.Size(),
			NextID:    set.NextID(),
		})
	}))
	mux.HandleFunc("GET /shard/{slot}/dump", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		serve.WriteJSON(w, http.StatusOK, dumpResponse{Labelled: set.Labelled(), Elements: set.Elements()})
	}))
	return mux
}

// withSlotIdx parses the {slot} path value.
func (s *ShardServer) withSlotIdx(fn func(http.ResponseWriter, *http.Request, int)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		idx, err := strconv.Atoi(r.PathValue("slot"))
		if err != nil || idx < 0 {
			serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad slot index %q", r.PathValue("slot")))
			return
		}
		fn(w, r, idx)
	}
}

// withSlot resolves the {slot} path value to its seeded set.
func (s *ShardServer) withSlot(fn func(http.ResponseWriter, *http.Request, *shard.Set)) http.HandlerFunc {
	return s.withSlotIdx(func(w http.ResponseWriter, r *http.Request, idx int) {
		set := s.slot(idx)
		if set == nil {
			serve.WriteError(w, http.StatusNotFound, fmt.Errorf("slot %d: %w", idx, errNotSeeded))
			return
		}
		fn(w, r, set)
	})
}

// query answers one slot query under the request's budget context and
// writes the wire response. A request no client means (k ≤ 0, a negative
// radius or bound) is a 400, as on the client routes.
func (s *ShardServer) query(w http.ResponseWriter, r *http.Request, set *shard.Set, q string, req search.Request) {
	if err := req.Validate(); err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := serve.RequestContext(r)
	defer cancel()
	hits, st, err := set.Query(ctx, []rune(q), req)
	if err != nil {
		// The scan fails only by cancellation: a vanished caller (the
		// coordinator gave up, often because a hedged sibling won) is
		// 499, an exhausted budget 504.
		s.gate.Fail(w, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, queryResponse{Hits: hits, Computations: st.Computations, Rejections: st.Rejections})
}
