package clustertest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/remote"
	"ced/internal/search"
)

// TestClusterHedgeCancelsLoser pins the hedged-read cancellation fix: when
// the fast replica wins the race, the slow loser's request must be
// cancelled — observed here as the slow node never serving a single knn
// (its fault layer sees the requests arrive, then sees them cancelled
// mid-sleep), while every answer stays exact. Before per-attempt
// cancellation reached the transport, the loser ran its scan to completion
// and the slow node's served counter grew with every hedged query.
func TestClusterHedgeCancelsLoser(t *testing.T) {
	d := dataset.Spanish(100, 13)
	c := Start(t, Config{
		Nodes: 2, Shards: 1, Replicas: 2,
		Timeout:    2 * time.Second,
		HedgeAfter: 5 * time.Millisecond,
	}, d.Strings, nil)
	o := NewOracle(c.Metric, d.Strings, nil)

	slow := c.Nodes[1]
	slow.SetSlow(500 * time.Millisecond)

	for i := 0; i < 20; i++ {
		assertClusterKNN(t, o, c, d.Strings[i%len(d.Strings)], 5, "hedged")
	}
	if slow.Faulted() == 0 {
		t.Fatal("the slow replica never saw a request — hedging was not exercised")
	}
	if got := slow.Served("knn"); got != 0 {
		t.Fatalf("slow replica served %d knn requests after losing the race — hedge losers are not being cancelled", got)
	}
	if hedged := c.Coord.Info().Hedged; hedged == 0 {
		t.Fatal("no hedged request was ever launched")
	}
}

// TestClusterBreakerFailsFastThenRecovers drives the per-replica circuit
// breaker through its whole life cycle on an R=1 shard: repeated failures
// open it (queries fail fast without touching the sick node), the open
// window holds even after the node heals, and a probe — or the half-open
// trial path below — closes it again.
func TestClusterBreakerFailsFastThenRecovers(t *testing.T) {
	d := dataset.Spanish(60, 17)
	c := Start(t, Config{
		Nodes: 2, Shards: 2, Replicas: 1,
		Timeout:         200 * time.Millisecond,
		FailThreshold:   1,
		BreakerCooldown: 10 * time.Second, // far longer than the test: open stays open
	}, d.Strings, nil)
	o := NewOracle(c.Metric, d.Strings, nil)
	ctx := context.Background()

	assertClusterKNN(t, o, c, "casa", 3, "baseline")

	// Shard 1's only replica lives on node 1; kill it and trip the breaker.
	c.Nodes[1].SetFault(FaultDown)
	if _, _, err := c.Coord.Query(ctx, "casa", search.KNN(3, math.Inf(1))); err == nil {
		t.Fatal("query succeeded with an entire shard dead")
	}
	for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
		if rh.Breaker != remote.BreakerOpen {
			t.Fatalf("replica breaker is %q after ejection within cooldown, want %q", rh.Breaker, remote.BreakerOpen)
		}
	}

	// Open breaker = fail fast: the sick node receives no further traffic.
	before := c.Nodes[1].Faulted()
	for i := 0; i < 5; i++ {
		if _, _, err := c.Coord.Query(ctx, "casa", search.KNN(3, math.Inf(1))); err == nil {
			t.Fatal("query succeeded through an open breaker")
		}
	}
	if got := c.Nodes[1].Faulted(); got != before {
		t.Fatalf("open breaker let %d requests through to the sick node", got-before)
	}

	// Healing the node does not close the breaker by itself — the cooldown
	// is still running, so queries keep failing fast...
	c.Heal()
	if _, _, err := c.Coord.Query(ctx, "casa", search.KNN(3, math.Inf(1))); err == nil {
		t.Fatal("query succeeded while the breaker was still open")
	}
	// ...until a probe readmits the replica out of band.
	c.Coord.Probe(ctx)
	assertClusterKNN(t, o, c, "casa", 3, "probed")
	for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
		if rh.Breaker != remote.BreakerClosed || rh.Readmissions == 0 {
			t.Fatalf("replica not readmitted after probe: %+v", rh)
		}
	}
}

// TestClusterBreakerHalfOpenTrialReadmits exercises the in-band recovery
// path: once the cooldown elapses the breaker goes half-open, a hedged
// trial query lands on the healed replica, and its success closes the
// breaker — no probe involved.
func TestClusterBreakerHalfOpenTrialReadmits(t *testing.T) {
	d := dataset.Spanish(80, 19)
	c := Start(t, Config{
		Nodes: 2, Shards: 1, Replicas: 2,
		Timeout:         2 * time.Second,
		FailThreshold:   1,
		HedgeAfter:      5 * time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
	}, d.Strings, nil)
	o := NewOracle(c.Metric, d.Strings, nil)

	// Trip node 1's replica: a couple of queries route its way (directly or
	// via hedge) and its failures eject it.
	c.Nodes[1].SetFault(Fault500)
	for i := 0; i < 4; i++ {
		assertClusterKNN(t, o, c, d.Strings[i], 3, "tripping")
	}
	tripped := false
	for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
		tripped = tripped || !rh.Healthy
	}
	if !tripped {
		t.Fatal("faulty replica was never ejected — the breaker has nothing to recover from")
	}

	// Heal, let the cooldown elapse, and slow the healthy node so the hedge
	// timer fires and routes a trial to the half-open replica.
	c.Heal()
	time.Sleep(80 * time.Millisecond)
	c.Nodes[0].SetSlow(300 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		assertClusterKNN(t, o, c, "casa", 3, "half-open-trial")
		healthy := true
		for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
			healthy = healthy && rh.Healthy
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("half-open trial never readmitted the healed replica: %+v",
				nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL))
		}
	}
	for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
		if rh.Readmissions == 0 {
			t.Fatalf("readmission did not come from the trial path: %+v", rh)
		}
	}
}

// TestClusterDegradedMode covers the opt-in partial-answer escape hatch:
// with AllowDegraded and an entire shard gone, queries return the
// surviving shards' exact hits tagged *remote.Degraded (and the HTTP layer
// surfaces "degraded": true with the missing-shard list) instead of
// failing — while caller mistakes and full outages stay loud.
func TestClusterDegradedMode(t *testing.T) {
	d := dataset.Spanish(60, 23)
	labels := make([]int, len(d.Strings))
	for i := range labels {
		labels[i] = i % 2
	}
	c := Start(t, Config{
		Nodes: 2, Shards: 2, Replicas: 1,
		Timeout:       200 * time.Millisecond,
		FailThreshold: 1,
		AllowDegraded: true,
	}, d.Strings, labels)
	o := NewOracle(c.Metric, d.Strings, labels)
	ctx := context.Background()

	assertClusterKNN(t, o, c, "casa", 3, "baseline")

	// Kill shard 1's only home. The cluster now answers from shard 0 alone,
	// tagged degraded.
	c.Nodes[1].SetFault(FaultDown)
	hits, _, err := c.Coord.Query(ctx, "casa", search.KNN(10, math.Inf(1)))
	var deg *remote.Degraded
	if !errors.As(err, &deg) {
		t.Fatalf("want a *remote.Degraded error, got %v", err)
	}
	if len(deg.MissingShards) != 1 || deg.MissingShards[0] != 1 {
		t.Fatalf("missing shards %v, want [1]", deg.MissingShards)
	}
	if len(hits) == 0 {
		t.Fatal("degraded answer carried no hits from the surviving shard")
	}
	// Every returned element must belong to shard 0's ID range — the
	// partial answer is exact over the shards that answered.
	width := uint64(c.Coord.RangeWidth())
	for _, h := range hits {
		if int(h.ID/width)%2 != 0 {
			t.Fatalf("degraded answer leaked ID %d from the dead shard", h.ID)
		}
	}

	// The HTTP layer tags the partial answer instead of hiding it.
	h := remote.NewCoordinatorHandler(c.Coord)
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(map[string]any{"query": "casa", "k": 5})
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/knn", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded /knn returned HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results       []any `json:"results"`
		Degraded      bool  `json:"degraded"`
		MissingShards []int `json:"missing_shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.MissingShards) != 1 || resp.MissingShards[0] != 1 {
		t.Fatalf("degraded response not tagged: %s", rec.Body.String())
	}
	if info := c.Coord.Info(); info.DegradedServed == 0 {
		t.Fatal("DegradedServed counter never moved")
	}

	// The caller's own cancellation is never absorbed into a degraded
	// answer.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := c.Coord.Query(expired, "casa", search.KNN(3, math.Inf(1))); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-context query returned %v, want DeadlineExceeded", err)
	}

	// With every shard gone there is no partial answer left: fail loud.
	c.Nodes[0].SetFault(FaultDown)
	if _, _, err := c.Coord.Query(ctx, "casa", search.KNN(3, math.Inf(1))); err == nil || errors.As(err, &deg) {
		t.Fatalf("total outage produced %v, want a loud non-degraded error", err)
	}

	// Recovery: heal, probe, and the full exact answer is back untagged.
	c.Heal()
	c.Coord.Probe(ctx)
	assertClusterKNN(t, o, c, "casa", 3, "healed")
	assertClusterClassify(t, o, c, "casa", "healed")
}
