package clustertest

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/remote"
	"ced/internal/search"
	"ced/internal/serve"
)

// assertClusterKNN pins a cluster k-NN answer to the oracle with the
// tie-insensitive signature the in-process differential uses: identical
// distance multiset, every sub-kth element present, every returned hit at
// a distance the metric confirms for that value.
func assertClusterKNN(t *testing.T, o *Oracle, c *Cluster, q string, k int, tag string) {
	t.Helper()
	hits, _, err := c.Coord.Query(context.Background(), q, search.KNN(k, math.Inf(1)))
	if err != nil {
		t.Fatalf("%s query %q: %v", tag, q, err)
	}
	dists, below, kth := o.KNN(q, k)
	if len(hits) != len(dists) {
		t.Fatalf("%s query %q: %d hits, oracle has %d", tag, q, len(hits), len(dists))
	}
	for i, h := range hits {
		if h.Distance != dists[i] {
			t.Fatalf("%s query %q rank %d: distance %v, oracle %v", tag, q, i, h.Distance, dists[i])
		}
		if h.Distance < kth && !below[h.ID] {
			t.Fatalf("%s query %q rank %d: sub-kth hit %d not in oracle's sub-kth set", tag, q, i, h.ID)
		}
		if want := o.Distance(q, h.Value); want != h.Distance {
			t.Fatalf("%s query %q: hit %d reports distance %v but is at %v", tag, q, h.ID, h.Distance, want)
		}
		delete(below, h.ID)
	}
	if len(below) > 0 {
		t.Fatalf("%s query %q: cluster answer missed sub-kth elements %v", tag, q, below)
	}
}

// assertClusterRadius pins a radius answer exactly — range queries have no
// tie latitude, so IDs and distances must match the oracle bit for bit.
func assertClusterRadius(t *testing.T, o *Oracle, c *Cluster, q string, r float64, tag string) {
	t.Helper()
	hits, _, err := c.Coord.Query(context.Background(), q, search.Within(r))
	if err != nil {
		t.Fatalf("%s radius %q r=%v: %v", tag, q, r, err)
	}
	ids, dists := o.RadiusIDs(q, r)
	if len(hits) != len(ids) {
		t.Fatalf("%s radius %q r=%v: %d hits, oracle has %d", tag, q, r, len(hits), len(ids))
	}
	for i, h := range hits {
		if h.ID != ids[i] || h.Distance != dists[i] {
			t.Fatalf("%s radius %q r=%v rank %d: got (%d, %v), oracle (%d, %v)",
				tag, q, r, i, h.ID, h.Distance, ids[i], dists[i])
		}
	}
}

// assertClusterClassify pins a classification to a minimal-distance label.
func assertClusterClassify(t *testing.T, o *Oracle, c *Cluster, q string, tag string) {
	t.Helper()
	p, _, err := serve.Classify(context.Background(), c.Coord, q)
	if err != nil {
		t.Fatalf("%s classify %q: %v", tag, q, err)
	}
	best, labels := o.BestLabels(q)
	if p.Neighbor.Distance != best {
		t.Fatalf("%s classify %q: nearest at %v, oracle at %v", tag, q, p.Neighbor.Distance, best)
	}
	if !labels[p.Label] {
		t.Fatalf("%s classify %q: label %d is not the label of any minimal-distance element", tag, q, p.Label)
	}
}

// TestClusterMatchesMonolithic is the cluster acceptance differential: a
// 2-node, 4-shard, R=2 cluster over a 1k-string corpus must return the
// same k-NN result sets (modulo equal-distance ties at the k-th rank), the
// same radius result sets (exactly) and the same classifications as both
// an exhaustive-scan oracle and a monolithic serving engine — before and
// after interleaved Add/Delete/compaction, with the engine and the
// coordinator kept in mutation lockstep (same minted IDs, same delete
// outcomes, same live size).
func TestClusterMatchesMonolithic(t *testing.T) {
	d := dataset.Spanish(1000, 11)
	labels := make([]int, len(d.Strings))
	for i := range labels {
		labels[i] = i % 5
	}
	queries := []string{"casa", "perros", "quesadilla", "xyzzyx", "a",
		d.Strings[3], d.Strings[500] + "o", d.Strings[999]}

	c := Start(t, Config{
		Nodes: 2, Shards: 4, Replicas: 2,
		MetricName: "dC", Algorithm: "laesa", Pivots: 12, Seed: 99,
		// Compacting a LAESA slot rebuilds its pivot table, which outlives
		// the default 1s per-attempt timeout under -race.
		Timeout: 60 * time.Second,
	}, d.Strings, labels)
	o := NewOracle(c.Metric, d.Strings, labels)

	m, err := metric.ByName("dC")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(d.Strings, labels, m, serve.Config{
		Algorithm: "laesa", Pivots: 12, Seed: 99, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	check := func(tag string, qs []string) {
		t.Helper()
		for _, q := range qs {
			assertClusterKNN(t, o, c, q, 10, tag)
			assertClusterClassify(t, o, c, q, tag)
			// Pin the radius at the oracle's 5th-nearest distance so the
			// range answer is non-trivial for every query.
			dists, _, _ := o.KNN(q, 5)
			assertClusterRadius(t, o, c, q, dists[len(dists)-1], tag)
			// And pin the monolithic engine to the same distance multiset,
			// tying the two serving stacks together through the oracle.
			ns, _, err := eng.KNearestCtx(context.Background(), q, 10)
			if err != nil {
				t.Fatalf("%s engine knn %q: %v", tag, q, err)
			}
			odists, _, _ := o.KNN(q, 10)
			if len(ns) != len(odists) {
				t.Fatalf("%s engine knn %q: %d results, oracle %d", tag, q, len(ns), len(odists))
			}
			for i := range ns {
				if ns[i].Distance != odists[i] {
					t.Fatalf("%s engine knn %q rank %d: %v, oracle %v", tag, q, i, ns[i].Distance, odists[i])
				}
			}
		}
	}
	check("static", queries)

	// Interleave adds, deletes and forced compactions, keeping the cluster,
	// the monolithic engine and the oracle in lockstep.
	for i := 0; i < 120; i++ {
		v := fmt.Sprintf("mut%03d", i)
		id, err := c.Coord.Add(ctx, v, i%5)
		if err != nil {
			t.Fatalf("add %q: %v", v, err)
		}
		engID, err := eng.Add(ctx, v, i%5)
		if err != nil {
			t.Fatal(err)
		}
		if engID != id {
			t.Fatalf("ID drift: cluster minted %d, engine %d", id, engID)
		}
		o.Add(id, v, i%5)
		if i%3 == 0 {
			victim := uint64(i * 7 % 1000)
			delC, err := c.Coord.Delete(ctx, victim)
			if err != nil {
				t.Fatalf("delete %d: %v", victim, err)
			}
			delE, err := eng.Delete(ctx, victim)
			if err != nil {
				t.Fatal(err)
			}
			if delC != delE {
				t.Fatalf("delete %d: cluster applied=%v, engine applied=%v", victim, delC, delE)
			}
			if delC {
				o.Delete(victim)
			}
		}
		if i == 60 {
			if err := c.Coord.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			eng.Compact()
		}
	}
	if err := c.Coord.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	eng.Compact()

	check("mutated", append(queries, "mut005", "mut119"))

	if size := c.Coord.Size(); size != o.Size() {
		t.Fatalf("cluster live size %d, oracle %d", size, o.Size())
	}
	if got := eng.Info().CorpusSize; got != o.Size() {
		t.Fatalf("engine live size %d, oracle %d", got, o.Size())
	}
	elems, err := c.Coord.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ids, values, olabels := o.Live()
	if len(elems) != len(ids) {
		t.Fatalf("cluster dump has %d elements, oracle %d", len(elems), len(ids))
	}
	for i, e := range elems {
		if e.ID != ids[i] || e.Value != values[i] || e.Label != olabels[i] {
			t.Fatalf("dump row %d: got (%d,%q,%d), oracle (%d,%q,%d)",
				i, e.ID, e.Value, e.Label, ids[i], values[i], olabels[i])
		}
	}
}

// TestClusterInfoTopology sanity-checks the /healthz view of a freshly
// seeded cluster: correct placement dimensions, every replica healthy, the
// minted-ID watermark at the corpus size.
func TestClusterInfoTopology(t *testing.T) {
	d := dataset.Spanish(100, 2)
	c := Start(t, Config{Nodes: 2, Shards: 4, Replicas: 2}, d.Strings, nil)
	info := c.Coord.Info()
	if info.Shards != 4 || info.Replicas != 2 || len(info.Nodes) != 2 {
		t.Fatalf("topology %d shards / %d replicas / %d nodes, want 4/2/2",
			info.Shards, info.Replicas, len(info.Nodes))
	}
	if !info.Healthy {
		t.Fatalf("fresh cluster reports unhealthy: %+v", info.ReplicaHealth)
	}
	if len(info.ReplicaHealth) != 8 {
		t.Fatalf("%d replica rows, want 8", len(info.ReplicaHealth))
	}
	for _, rh := range info.ReplicaHealth {
		if !rh.Healthy || rh.Stale || rh.Ejections != 0 {
			t.Fatalf("fresh replica unhealthy: %+v", rh)
		}
	}
	if info.NextID != 100 {
		t.Fatalf("next ID %d, want 100", info.NextID)
	}
	if info.RangeWidth != 25 {
		t.Fatalf("range width %d, want 25 (ceil(100/4))", info.RangeWidth)
	}
}

// TestClusterWriteSizeFromAcks: a cluster /add or /delete answers the live
// corpus size from the sizes its write acknowledgements carried, so a
// write asks no shard for its size: no node serves an info call while
// nothing is ejected.
func TestClusterWriteSizeFromAcks(t *testing.T) {
	d := dataset.Spanish(60, 5)
	c := Start(t, Config{Nodes: 2, Shards: 4, Replicas: 2}, d.Strings, nil)
	o := NewOracle(c.Metric, d.Strings, nil)
	h := remote.NewCoordinatorHandler(c.Coord)
	post := func(path, body string) (id uint64, size int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d: %s", path, body, rec.Code, rec.Body)
		}
		var resp struct {
			ID   uint64 `json:"id"`
			Size int    `json:"size"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.ID, resp.Size
	}
	for i := 0; i < 12; i++ {
		v := fmt.Sprintf("nuevo%02d", i)
		id, size := post("/add", fmt.Sprintf(`{"value":%q}`, v))
		o.Add(id, v, 0)
		if size != o.Size() {
			t.Fatalf("add %d: size %d, oracle %d", i, size, o.Size())
		}
		if i%3 != 0 {
			continue
		}
		victim := uint64(i * 5)
		if _, size := post("/delete", fmt.Sprintf(`{"id":%d}`, victim)); !o.Delete(victim) || size != o.Size() {
			t.Fatalf("delete %d: size %d, oracle %d", victim, size, o.Size())
		}
		if i == 6 {
			post("/compact", `{}`)
		}
	}
	var info int64
	for _, n := range c.Nodes {
		info += n.Served("info")
	}
	if info != 0 {
		t.Errorf("the writes made %d shard info calls, want 0", info)
	}
}
