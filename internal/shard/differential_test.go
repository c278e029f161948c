package shard

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
)

// liveOracle is the monolithic reference: a plain slice of live elements
// queried by exhaustive scan, mutated in lockstep with the sharded set.
type liveOracle struct {
	m      metric.Metric
	ids    []uint64
	values []string
	labels []int
}

func newLiveOracle(m metric.Metric, corpus []string, labels []int) *liveOracle {
	o := &liveOracle{m: m}
	for i, v := range corpus {
		o.ids = append(o.ids, uint64(i))
		o.values = append(o.values, v)
		if labels != nil {
			o.labels = append(o.labels, labels[i])
		} else {
			o.labels = append(o.labels, 0)
		}
	}
	return o
}

func (o *liveOracle) add(id uint64, v string, label int) {
	o.ids = append(o.ids, id)
	o.values = append(o.values, v)
	o.labels = append(o.labels, label)
}

func (o *liveOracle) delete(id uint64) {
	for i, oid := range o.ids {
		if oid == id {
			o.ids = append(o.ids[:i], o.ids[i+1:]...)
			o.values = append(o.values[:i], o.values[i+1:]...)
			o.labels = append(o.labels[:i], o.labels[i+1:]...)
			return
		}
	}
}

// knn returns the oracle's k smallest distances (ascending) and the set of
// IDs strictly below the k-th distance — the tie-insensitive signature a
// correct k-NN answer must reproduce exactly.
func (o *liveOracle) knn(q []rune, k int) (dists []float64, below map[uint64]bool, kth float64) {
	type pair struct {
		id uint64
		d  float64
	}
	all := make([]pair, len(o.ids))
	for i, v := range o.values {
		all[i] = pair{id: o.ids[i], d: o.m.Distance(q, []rune(v))}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	kth = math.Inf(1)
	if k > 0 {
		kth = all[k-1].d
	}
	below = map[uint64]bool{}
	for i := 0; i < k; i++ {
		dists = append(dists, all[i].d)
		if all[i].d < kth {
			below[all[i].id] = true
		}
	}
	return dists, below, kth
}

// assertKNNMatches checks a sharded answer against the oracle: identical
// distance multiset, every sub-kth element present, and every returned hit
// at a distance the oracle confirms for that ID.
func assertKNNMatches(t *testing.T, o *liveOracle, s *Set, q string, k int, tag string) {
	t.Helper()
	hits, _ := knn(s, []rune(q), k)
	dists, below, kth := o.knn([]rune(q), k)
	if len(hits) != len(dists) {
		t.Fatalf("%s query %q: %d hits, oracle has %d", tag, q, len(hits), len(dists))
	}
	for i, h := range hits {
		if h.Distance != dists[i] {
			t.Fatalf("%s query %q rank %d: distance %v, oracle %v (hits=%v oracle=%v)",
				tag, q, i, h.Distance, dists[i], hits, dists)
		}
		if h.Distance < kth && !below[h.ID] {
			t.Fatalf("%s query %q rank %d: sub-kth hit %d not in oracle's sub-kth set", tag, q, i, h.ID)
		}
		if want := o.m.Distance([]rune(q), []rune(h.Value)); want != h.Distance {
			t.Fatalf("%s query %q: hit %d reports distance %v but is at %v", tag, q, h.ID, h.Distance, want)
		}
		delete(below, h.ID)
	}
	if len(below) > 0 {
		t.Fatalf("%s query %q: sharded answer missed sub-kth elements %v", tag, q, below)
	}
}

// assertClassifyMatches checks the prediction is a minimal-distance label.
func assertClassifyMatches(t *testing.T, o *liveOracle, s *Set, q string, tag string) {
	t.Helper()
	hit, _, err := classify(s, []rune(q))
	if err != nil {
		t.Fatalf("%s classify %q: %v", tag, q, err)
	}
	best := math.Inf(1)
	for _, v := range o.values {
		if d := o.m.Distance([]rune(q), []rune(v)); d < best {
			best = d
		}
	}
	if hit.Distance != best {
		t.Fatalf("%s classify %q: nearest at %v, oracle at %v", tag, q, hit.Distance, best)
	}
	ok := false
	for i, v := range o.values {
		if o.m.Distance([]rune(q), []rune(v)) == best && o.labels[i] == hit.Label {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("%s classify %q: label %d is not the label of any minimal-distance element", tag, q, hit.Label)
	}
}

// TestShardedMatchesMonolithic is the acceptance differential: a shard.Set
// at 1 and 4 shards must return the same k-NN result sets (modulo
// equal-distance ties at the k-th rank) and the same classifications as a
// monolithic exhaustive scan over a ≥1k-string corpus — before and after
// interleaved Add/Delete/compaction.
func TestShardedMatchesMonolithic(t *testing.T) {
	d := dataset.Spanish(1000, 11)
	labels := make([]int, len(d.Strings))
	for i := range labels {
		labels[i] = i % 5
	}
	queries := []string{"casa", "perros", "quesadilla", "xyzzyx", "a",
		d.Strings[3], d.Strings[500] + "o", d.Strings[999]}

	for _, shards := range []int{1, 4} {
		for _, algo := range []string{"laesa", "linear", "vptree"} {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				m := metric.Contextual()
				var build BuildFunc
				switch algo {
				case "laesa":
					build = testBuilder(m, 12, 99)
				case "linear":
					build = func(_ int, corpus [][]rune) search.Index {
						return search.NewLinear(corpus, m)
					}
				case "vptree":
					build = func(idx int, corpus [][]rune) search.Index {
						return search.NewVPTree(corpus, m, 99+int64(idx))
					}
				}
				s, err := New(d.Strings, labels, Config{
					Shards: shards, Metric: m, Build: build, Algorithm: algo,
					CompactThreshold: 64,
				})
				if err != nil {
					t.Fatal(err)
				}
				o := newLiveOracle(m, d.Strings, labels)

				for _, q := range queries {
					assertKNNMatches(t, o, s, q, 10, "static")
					assertClassifyMatches(t, o, s, q, "static")
				}

				// Interleave adds, deletes and forced compactions.
				for i := 0; i < 120; i++ {
					v := fmt.Sprintf("mut%03d", i)
					id := s.Add(v, i%5)
					o.add(id, v, i%5)
					if i%3 == 0 {
						victim := uint64(i * 7 % 1000)
						if s.Delete(victim) {
							o.delete(victim)
						}
					}
					if i == 60 {
						s.Compact()
					}
				}
				s.Compact()

				for _, q := range append(queries, "mut005", "mut119") {
					assertKNNMatches(t, o, s, q, 10, "mutated")
					assertClassifyMatches(t, o, s, q, "mutated")
				}
			})
		}
	}
}
