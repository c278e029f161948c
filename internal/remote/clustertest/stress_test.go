package clustertest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/search"
	"ced/internal/shard"
)

// TestClusterMutationStress hammers a 2-replica cluster with concurrent
// Add/Delete/KNearest traffic (run under -race in CI), then quiesces and
// checks the cluster settled to the exact ledger of acknowledged writes:
// the coordinator's merged dump, every replica's individual dump, and a
// fresh round of pinned queries all agree with what the writers recorded.
func TestClusterMutationStress(t *testing.T) {
	d := dataset.Spanish(200, 3)
	labels := make([]int, len(d.Strings))
	for i := range labels {
		labels[i] = i % 4
	}
	c := Start(t, Config{
		Nodes: 2, Shards: 2, Replicas: 2,
		Timeout:       2 * time.Second,
		ProbeInterval: 50 * time.Millisecond, // background probe churns concurrently
	}, d.Strings, labels)
	ctx := context.Background()

	// The ledger of acknowledged writes, appended under its own lock.
	type addRec struct {
		id    uint64
		value string
		label int
	}
	var mu sync.Mutex
	var adds []addRec
	var dels []uint64

	const writers, readers, opsPerWorker = 4, 2, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				if rng.Intn(3) < 2 {
					v := fmt.Sprintf("estres-%d-%02d", w, i)
					label := rng.Intn(4)
					id, err := c.Coord.Add(ctx, v, label)
					if err != nil {
						t.Errorf("writer %d: add: %v", w, err)
						return
					}
					mu.Lock()
					adds = append(adds, addRec{id, v, label})
					mu.Unlock()
				} else {
					victim := uint64(rng.Intn(len(d.Strings)))
					deleted, err := c.Coord.Delete(ctx, victim)
					if err != nil {
						t.Errorf("writer %d: delete %d: %v", w, victim, err)
						return
					}
					if deleted {
						mu.Lock()
						dels = append(dels, victim)
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < opsPerWorker; i++ {
				q := d.Strings[rng.Intn(len(d.Strings))]
				hits, _, err := c.Coord.Query(ctx, q, search.KNN(5, math.Inf(1)))
				if err != nil {
					t.Errorf("reader %d: knn %q: %v", r, q, err)
					return
				}
				if len(hits) == 0 || len(hits) > 5 {
					t.Errorf("reader %d: knn %q returned %d hits", r, q, len(hits))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: replay the acknowledged ledger into an oracle and pin the
	// settled cluster against it.
	o := NewOracle(c.Metric, d.Strings, labels)
	for _, a := range adds {
		o.Add(a.id, a.value, a.label)
	}
	for _, id := range dels {
		o.Delete(id)
	}

	elems, err := c.Coord.Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ids, values, olabels := o.Live()
	if len(elems) != len(ids) {
		t.Fatalf("settled cluster has %d live elements, ledger says %d", len(elems), len(ids))
	}
	for i, e := range elems {
		if e.ID != ids[i] || e.Value != values[i] || e.Label != olabels[i] {
			t.Fatalf("settled row %d: cluster (%d,%q,%d), ledger (%d,%q,%d)",
				i, e.ID, e.Value, e.Label, ids[i], values[i], olabels[i])
		}
	}

	// Every replica of every shard must hold exactly the ledger's slice of
	// its ID range — replication left no divergence behind.
	width := c.Coord.RangeWidth()
	shards := c.Coord.Shards()
	for s := 0; s < shards; s++ {
		want := map[uint64]shard.Element{}
		for i, id := range ids {
			if int(id/uint64(width))%shards == s {
				want[id] = shard.Element{ID: id, Value: values[i], Label: olabels[i]}
			}
		}
		for r := 0; r < c.Coord.Replicas(); r++ {
			node := c.Nodes[(s+r)%len(c.Nodes)]
			_, got, err := node.ReplicaClient(s).Dump(ctx)
			if err != nil {
				t.Fatalf("dump shard %d replica %d: %v", s, r, err)
			}
			if len(got) != len(want) {
				t.Fatalf("shard %d replica %d holds %d elements, ledger slice has %d",
					s, r, len(got), len(want))
			}
			for _, e := range got {
				if w, ok := want[e.ID]; !ok || w != e {
					t.Fatalf("shard %d replica %d diverged at ID %d: %+v vs %+v", s, r, e.ID, e, want[e.ID])
				}
			}
		}
	}

	// And a final pinned query round over the settled corpus.
	for _, q := range []string{"casa", d.Strings[0], "estres-0-00"} {
		assertClusterKNN(t, o, c, q, 8, "settled")
		assertClusterClassify(t, o, c, q, "settled")
	}
}
