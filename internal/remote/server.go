package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"ced/internal/blob"
	"ced/internal/metric"
	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// maxBodyBytes bounds request bodies. Seed and dump payloads carry whole
// shard slices, so the ceiling is generous; a shard worth more than this
// should arrive via the snapshot pipeline, not one JSON body.
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
	// Store optionally attaches a durable blob store: each slot snapshots
	// into (and restores from) its own "slot-<idx>/" prefix. A fleet
	// sharing one store URL gives the coordinator a re-sync fast path —
	// donor publishes an incremental snapshot, the recovering replica
	// restores it — instead of a full dump transfer. Nil disables the
	// /shard/{slot}/snapshot and /shard/{slot}/restore endpoints.
	Store blob.Store
}

// ShardServer hosts logical shard slots for a cluster coordinator: each
// slot is an independent single-shard shard.Set created when the
// coordinator seeds it, queried with a request-scoped pruning bound and
// mutated with coordinator-minted IDs. One process can host any number of
// slots, so a small fleet can carry many logical shards (replica r of shard
// s lives on node (s+r) mod N — the coordinator's placement, invisible
// here).
type ShardServer struct {
	cfg    ServerConfig
	mu     sync.RWMutex
	slots  map[int]*shard.Set
	savers map[int]*shard.Saver // lazily built per slot; reset on re-seed

	// Cancellation outcome counters, surfaced on /healthz. A climbing
	// cancelled count is the direct evidence that coordinator hedging (and
	// client disconnects) actually stop shard-side computation instead of
	// letting abandoned scans run to completion.
	cancelled atomic.Uint64 // queries stopped by caller cancellation (499)
	deadline  atomic.Uint64 // queries stopped by an exhausted budget (504)
}

// NewShardServer builds an empty shard host; slots appear when seeded.
func NewShardServer(cfg ServerConfig) (*ShardServer, error) {
	if cfg.Metric == nil {
		return nil, fmt.Errorf("remote: nil metric")
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "laesa"
	}
	if cfg.Pivots <= 0 {
		cfg.Pivots = 16
	}
	// Resolve the builder once so a bad algorithm fails at startup, not at
	// the first seed.
	if _, err := shard.StandardBuild(cfg.Algorithm, cfg.Metric, cfg.Pivots, cfg.Seed, cfg.BuildWorkers); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return &ShardServer{
		cfg:    cfg,
		slots:  make(map[int]*shard.Set),
		savers: make(map[int]*shard.Saver),
	}, nil
}

// slotStore scopes the configured blob store to one slot's prefix (nil
// without a store).
func (s *ShardServer) slotStore(idx int) blob.Store {
	if s.cfg.Store == nil {
		return nil
	}
	// The prefix is a fixed-shape valid key, so Prefix cannot fail.
	st, err := blob.Prefix(s.cfg.Store, fmt.Sprintf("slot-%d", idx))
	if err != nil {
		panic(err)
	}
	return st
}

// saver returns (lazily creating) the slot's Saver; nil without a store.
func (s *ShardServer) saver(idx int) *shard.Saver {
	st := s.slotStore(idx)
	if st == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := s.savers[idx]
	if sv == nil {
		sv = shard.NewSaver(st)
		s.savers[idx] = sv
	}
	return sv
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
	if sv := s.savers[idx]; sv != nil {
		// The wholesale-replaced corpus does not descend from whatever the
		// slot's saver last snapshotted; the next snapshot must not trust
		// its epoch baseline.
		sv.Reset()
	}
	s.mu.Unlock()
	return nil
}

// restore rebuilds slot idx from the newest snapshot under its store
// prefix and attaches the manifest to the slot's saver, so the next
// snapshot is incremental. It is the re-sync fast path: the content
// arrives from the blob store, not through the coordinator.
func (s *ShardServer) restore(ctx context.Context, idx int) (*shard.Set, *shard.Manifest, error) {
	st := s.slotStore(idx)
	if st == nil {
		return nil, nil, fmt.Errorf("no blob store configured on this node")
	}
	build, err := shard.StandardBuild(s.cfg.Algorithm, s.cfg.Metric, s.cfg.Pivots,
		s.cfg.Seed+int64(idx), s.cfg.BuildWorkers)
	if err != nil {
		return nil, nil, err
	}
	set, man, err := shard.LoadFromStore(ctx, st, shard.Config{
		Metric:           s.cfg.Metric,
		Build:            build,
		Algorithm:        s.cfg.Algorithm,
		CompactThreshold: s.cfg.CompactThreshold,
	})
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.slots[idx] = set
	sv := s.savers[idx]
	if sv == nil {
		sv = shard.NewSaver(st)
		s.savers[idx] = sv
	}
	s.mu.Unlock()
	sv.Attach(man)
	return set, man, nil
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
//	POST /shard/{slot}/knn      {query, k, bound}              bounded k-NN
//	POST /shard/{slot}/radius   {query, radius}                range query
//	POST /shard/{slot}/add      {id, value, label}             idempotent replicated write
//	POST /shard/{slot}/delete   {id}                           idempotent replicated delete
//	POST /shard/{slot}/compact  (no body)                      fold delta+tombstones
//	GET  /shard/{slot}/info                                    slot identity + size
//	GET  /shard/{slot}/dump                                    full live content (re-sync)
//	POST /shard/{slot}/snapshot (no body)                      publish the slot into the blob store
//	POST /shard/{slot}/restore  (no body)                      rebuild the slot from the blob store
//	GET  /healthz                                              node liveness + slot sizes
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Status    string      `json:"status"`
			Metric    string      `json:"metric"`
			Slots     map[int]int `json:"slots"`
			Cancelled uint64      `json:"cancelled"`
			Deadline  uint64      `json:"deadline_exceeded"`
		}{"ok", s.cfg.Metric.Name(), s.Slots(), s.cancelled.Load(), s.deadline.Load()})
	})
	mux.HandleFunc("POST /shard/{slot}/seed", s.withSlotIdx(func(w http.ResponseWriter, r *http.Request, idx int) {
		var req seedRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Metric != "" && req.Metric != s.cfg.Metric.Name() {
			writeRemoteError(w, http.StatusConflict,
				fmt.Errorf("metric mismatch: coordinator expects %q, this node serves %q", req.Metric, s.cfg.Metric.Name()))
			return
		}
		if err := s.seed(idx, req.Labelled, req.Elements); err != nil {
			writeRemoteError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, mutateResponse{Applied: true, Size: s.slot(idx).Size()})
	}))
	mux.HandleFunc("POST /shard/{slot}/knn", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req knnRequest
		if decodeBody(w, r, &req) {
			s.query(w, r, set, req.Query, search.KNN(req.K, fromWireBound(req.Bound)))
		}
	}))
	mux.HandleFunc("POST /shard/{slot}/radius", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req radiusRequest
		if decodeBody(w, r, &req) {
			s.query(w, r, set, req.Query, search.Within(req.Radius))
		}
	}))
	mux.HandleFunc("POST /shard/{slot}/add", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req addRequest
		if !decodeBody(w, r, &req) {
			return
		}
		applied := set.AddWithID(req.ID, req.Value, req.Label)
		writeJSON(w, http.StatusOK, mutateResponse{Applied: applied, Size: set.Size()})
	}))
	mux.HandleFunc("POST /shard/{slot}/delete", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		var req deleteRequest
		if !decodeBody(w, r, &req) {
			return
		}
		applied := set.Delete(req.ID)
		writeJSON(w, http.StatusOK, mutateResponse{Applied: applied, Size: set.Size()})
	}))
	mux.HandleFunc("POST /shard/{slot}/compact", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		set.Compact()
		writeJSON(w, http.StatusOK, mutateResponse{Applied: true, Size: set.Size()})
	}))
	mux.HandleFunc("GET /shard/{slot}/info", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		writeJSON(w, http.StatusOK, SlotInfo{
			Metric:    s.cfg.Metric.Name(),
			Algorithm: set.Algorithm(),
			Labelled:  set.Labelled(),
			Size:      set.Size(),
			NextID:    set.NextID(),
		})
	}))
	mux.HandleFunc("GET /shard/{slot}/dump", s.withSlot(func(w http.ResponseWriter, r *http.Request, set *shard.Set) {
		writeJSON(w, http.StatusOK, dumpResponse{Labelled: set.Labelled(), Elements: set.Elements()})
	}))
	mux.HandleFunc("POST /shard/{slot}/snapshot", s.withSlotIdx(func(w http.ResponseWriter, r *http.Request, idx int) {
		set := s.slot(idx)
		if set == nil {
			writeRemoteError(w, http.StatusNotFound, fmt.Errorf("slot %d: %w", idx, errNotSeeded))
			return
		}
		sv := s.saver(idx)
		if sv == nil {
			writeRemoteError(w, http.StatusBadRequest, fmt.Errorf("no blob store configured on this node"))
			return
		}
		stats, err := sv.Save(r.Context(), set)
		if err != nil {
			writeRemoteError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, SlotSnapshot{
			Seq:         stats.Seq,
			ManifestSHA: stats.ManifestSHA,
			Size:        set.Size(),
			Uploaded:    stats.BasesUploaded + stats.OvlsUploaded,
			Skipped:     stats.BasesSkipped + stats.OvlsSkipped,
		})
	}))
	mux.HandleFunc("POST /shard/{slot}/restore", s.withSlotIdx(func(w http.ResponseWriter, r *http.Request, idx int) {
		set, man, err := s.restore(r.Context(), idx)
		if err != nil {
			// 404: non-retryable to the client; the coordinator falls back
			// to a dump-based reseed.
			writeRemoteError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, SlotSnapshot{
			Seq:         man.Seq,
			ManifestSHA: man.EnvelopeSHA(),
			Size:        set.Size(),
		})
	}))
	return mux
}

// withSlotIdx parses the {slot} path value.
func (s *ShardServer) withSlotIdx(fn func(http.ResponseWriter, *http.Request, int)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		idx, err := strconv.Atoi(r.PathValue("slot"))
		if err != nil || idx < 0 {
			writeRemoteError(w, http.StatusBadRequest, fmt.Errorf("bad slot index %q", r.PathValue("slot")))
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
			writeRemoteError(w, http.StatusNotFound, fmt.Errorf("slot %d: %w", idx, errNotSeeded))
			return
		}
		fn(w, r, set)
	})
}

// decodeBody parses a JSON request body, rejecting oversized payloads. On
// failure it writes the error response and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
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

// query answers one slot query under the request's budget context and
// writes the wire response.
func (s *ShardServer) query(w http.ResponseWriter, r *http.Request, set *shard.Set, q string, req search.Request) {
	ctx, cancel := serve.RequestContext(r)
	defer cancel()
	hits, st, err := set.Query(ctx, []rune(q), req)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{Hits: hits, Computations: st.Computations, Rejections: st.Rejections})
}

// writeQueryError maps a failed slot query to a status and bumps the
// node's cancellation counters: a vanished caller (the coordinator gave
// up, often because a hedged sibling won) is 499, an exhausted budget is
// 504, anything else is a plain bad request.
func (s *ShardServer) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.cancelled.Add(1)
		writeRemoteError(w, serve.StatusClientClosedRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.deadline.Add(1)
		writeRemoteError(w, http.StatusGatewayTimeout, err)
	default:
		writeRemoteError(w, http.StatusBadRequest, err)
	}
}

func writeRemoteError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
