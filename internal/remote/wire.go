// Package remote carries the per-shard query/mutate surface across the
// network: an HTTP/JSON shard server that hosts logical shard slots (each a
// single-shard shard.Set), a client with per-request timeouts and bounded
// retry, and a Coordinator that places ID ranges over the slots, replicates
// every write R ways, fans queries out with the same cross-shard pruning
// bound the in-process Set uses, hedges slow replicas and tracks
// per-replica health with ejection and re-sync-gated readmission. The
// Coordinator is a serve.Corpus: its client-facing API is serve's client
// routes (serve.NewMux) behind its own serve.Gate, so a cluster answers
// with the same bodies, statuses and classification rule as one server;
// this package adds only the coordinator's /healthz and /compact and the
// shard transport.
//
// The exactness argument is the in-process one verbatim: dC is a metric
// (triangle inequality), so a k-NN or radius query answered per shard under
// any pruning bound that never drops below the final k-th-best distance
// merges to the monolithic answer — no matter where the shard lives. The
// transport only moves shard.Set's Query (plus Add/Delete/Info) across a
// wire; the cluster differential suite in clustertest pins a live cluster
// to the monolithic engine's answers to keep that claim tested rather than
// assumed.
package remote

import (
	"ced/internal/metric"
	"ced/internal/shard"
)

// Wire request bodies. Slot identity rides in the URL path
// (/shard/{slot}/...), so bodies carry only the operation payload.
type (
	seedRequest struct {
		// Metric guards against a topology error: a shard server answering
		// under a different distance than the coordinator expects would
		// silently break cluster exactness, so seeding declares it.
		Metric   string          `json:"metric"`
		Labelled bool            `json:"labelled"`
		Elements []shard.Element `json:"elements"`
	}
	knnRequest struct {
		Query string `json:"query"`
		K     int    `json:"k"`
		// MaxDistance is the coordinator's running cross-cluster pruning
		// bound, a distance; null or absent is +Inf. It seeds the slot
		// set's merge bound.
		MaxDistance *float64 `json:"max_distance"`
	}
	radiusRequest struct {
		Query  string  `json:"query"`
		Radius float64 `json:"radius"`
	}
	addRequest struct {
		ID    uint64 `json:"id"`
		Value string `json:"value"`
		Label int    `json:"label"`
	}
	deleteRequest struct {
		ID uint64 `json:"id"`
	}
)

// Wire response bodies.
type (
	queryResponse struct {
		Hits         []shard.Hit        `json:"hits"`
		Computations int                `json:"computations"`
		Rejections   metric.StageCounts `json:"rejections"`
	}
	mutateResponse struct {
		// Applied reports whether the write changed the slot (false for an
		// idempotent re-delivery or a delete of a dead ID).
		Applied bool `json:"applied"`
		Size    int  `json:"size"`
	}
	// SlotInfo describes one hosted shard slot; the coordinator probes it
	// for health and topology checks.
	SlotInfo struct {
		Metric    string `json:"metric"`
		Algorithm string `json:"algorithm"`
		Labelled  bool   `json:"labelled"`
		Size      int    `json:"size"`
		NextID    uint64 `json:"next_id"`
	}
	dumpResponse struct {
		Labelled bool            `json:"labelled"`
		Elements []shard.Element `json:"elements"`
	}
)
