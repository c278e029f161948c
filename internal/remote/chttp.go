package remote

import (
	"net/http"

	"ced/internal/serve"
)

// NewCoordinatorHandler wraps a Coordinator in the client-facing cedserve
// JSON API: serve's client endpoints (/knn, /radius, /classify, /add,
// /delete — see serve.NewMux) through the coordinator's front door, plus
//
//	GET  /healthz     cluster topology, hedge/retry counters, replica health
//	POST /compact     (no body)
//
// Neighbour indexes are the cluster-stable global IDs. /healthz answers
// "ok" while every logical shard has at least one healthy replica and
// "degraded" otherwise (HTTP 200 either way — a degraded cluster still
// answers exactly through its fallback replicas as long as one non-stale
// replica per shard survives).
func NewCoordinatorHandler(c *Coordinator) http.Handler {
	mux := serve.NewMux(c, c.gate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		info := c.Info()
		status := "ok"
		if !info.Healthy {
			status = "degraded"
		}
		serve.WriteJSON(w, http.StatusOK, struct {
			Status  string      `json:"status"`
			Cluster ClusterInfo `json:"cluster"`
		}{status, info})
	})
	mux.HandleFunc("POST /compact", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Compact(r.Context()); err != nil {
			c.gate.Fail(w, err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{"ok"})
	})
	return mux
}
