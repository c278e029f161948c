package shard

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ced/internal/dataset"
	"ced/internal/metric"
)

// TestConcurrentMutationStress hammers Add, Delete, KNearest, Radius and
// the background compactor from parallel goroutines (run under -race in
// CI) and then checks the set settled exactly: no lost writes, no
// resurrected deletions, monotone epochs, and a live count that matches
// the ledger.
func TestConcurrentMutationStress(t *testing.T) {
	const initial = 400
	d := dataset.Spanish(initial, 23)
	m := metric.Contextual()
	s, err := New(d.Strings, nil, Config{
		Shards:           4,
		Metric:           m,
		Build:            testBuilder(m, 6, 17),
		Algorithm:        "laesa",
		CompactThreshold: 16, // small: force constant compaction churn
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		adders   = 4
		perAdder = 60
		deleters = 2
		queriers = 3
	)

	addedByWorker := make([][]uint64, adders)
	deletedByWorker := make([][]uint64, deleters)
	feed := make(chan uint64, adders*perAdder)

	var addWG sync.WaitGroup
	for w := 0; w < adders; w++ {
		addWG.Add(1)
		go func(w int) {
			defer addWG.Done()
			for i := 0; i < perAdder; i++ {
				v := fmt.Sprintf("stress-%d-%03d", w, i)
				id := s.Add(v, 0)
				addedByWorker[w] = append(addedByWorker[w], id)
				if i%2 == 0 {
					feed <- id // offer half the new entries for deletion
				}
				if i%5 == 0 {
					feed <- uint64((w*perAdder + i*3) % initial) // and some base elements
				}
			}
		}(w)
	}

	var workWG sync.WaitGroup
	for w := 0; w < deleters; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			for id := range feed {
				if s.Delete(id) {
					deletedByWorker[w] = append(deletedByWorker[w], id)
				}
			}
		}(w)
	}

	// Queriers observe epochs (must be monotone per shard) and exercise
	// the read path against the racing writers; mid-run results are
	// checked for internal consistency only — the live set is a moving
	// target.
	qErr := make(chan error, queriers)
	stop := make(chan struct{})
	for w := 0; w < queriers; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			lastEpoch := make([]uint64, s.Shards())
			for i := 0; ; i++ {
				select {
				case <-stop:
					qErr <- nil
					return
				default:
				}
				q := []rune(d.Strings[(w*131+i)%initial])
				hits, _ := knn(s, q, 5)
				for j := 1; j < len(hits); j++ {
					if hits[j].Distance < hits[j-1].Distance {
						qErr <- fmt.Errorf("unsorted hits for %q: %v", string(q), hits)
						return
					}
				}
				seen := map[uint64]bool{}
				for _, h := range hits {
					if seen[h.ID] {
						qErr <- fmt.Errorf("duplicate ID %d for %q: %v", h.ID, string(q), hits)
						return
					}
					seen[h.ID] = true
				}
				if _, _, err := radius(s, q, 0.3); err != nil {
					qErr <- err
					return
				}
				for sh := 0; sh < s.Shards(); sh++ {
					e := s.Epoch(sh)
					if e < lastEpoch[sh] {
						qErr <- fmt.Errorf("shard %d epoch went backwards: %d -> %d", sh, lastEpoch[sh], e)
						return
					}
					lastEpoch[sh] = e
				}
			}
		}(w)
	}

	addWG.Wait()
	close(feed) // deleters drain the remaining offers and exit
	close(stop)
	workWG.Wait()
	for w := 0; w < queriers; w++ {
		if err := <-qErr; err != nil {
			t.Fatal(err)
		}
	}
	s.Compact()

	// Build the ledger: all added IDs, all confirmed deletions.
	added := map[uint64]bool{}
	for _, ids := range addedByWorker {
		for _, id := range ids {
			if added[id] {
				t.Fatalf("ID %d minted twice", id)
			}
			added[id] = true
		}
	}
	deleted := map[uint64]bool{}
	for _, ids := range deletedByWorker {
		for _, id := range ids {
			if deleted[id] {
				t.Fatalf("ID %d delete confirmed twice", id)
			}
			deleted[id] = true
		}
	}

	wantLive := initial + len(added) - len(deleted)
	if got := s.Size(); got != wantLive {
		t.Fatalf("live size = %d, want %d (%d adds, %d deletes)", got, wantLive, len(added), len(deleted))
	}

	// Enumerate every live element with an unbounded radius query and
	// check it against the ledger: every added-and-not-deleted ID present
	// exactly once, every confirmed-deleted ID absent, every base ID
	// accounted for.
	all, _, err := radius(s, []rune("q"), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != wantLive {
		t.Fatalf("radius enumeration found %d elements, want %d", len(all), wantLive)
	}
	liveSeen := map[uint64]bool{}
	for _, h := range all {
		if liveSeen[h.ID] {
			t.Fatalf("ID %d enumerated twice", h.ID)
		}
		liveSeen[h.ID] = true
		if deleted[h.ID] {
			t.Fatalf("deleted ID %d resurrected (value %q)", h.ID, h.Value)
		}
	}
	for id := range added {
		if !deleted[id] && !liveSeen[id] {
			t.Fatalf("added ID %d lost", id)
		}
	}
	for id := 0; id < initial; id++ {
		if !deleted[uint64(id)] && !liveSeen[uint64(id)] {
			t.Fatalf("base ID %d lost", id)
		}
	}

	info := s.Info()
	if info.Adds != uint64(len(added)) || info.Deletes != uint64(len(deleted)) {
		t.Errorf("info counters: %d adds / %d deletes, want %d / %d",
			info.Adds, info.Deletes, len(added), len(deleted))
	}
	if info.Compactions == 0 {
		t.Error("the stress run never compacted despite a threshold of 16")
	}
}
