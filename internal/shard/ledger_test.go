package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"ced/internal/blob"
	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
)

// ledgerModel is the trivially correct shard bookkeeping the ledger test
// checks a Set against: every element ever inserted, which of them are
// deleted, and which of them each shard's current base holds.
type ledgerModel struct {
	shards int
	elems  map[uint64]Element
	dead   map[uint64]bool
	base   []map[uint64]bool // per shard: the IDs its base index holds
	next   uint64
}

func (md *ledgerModel) insert(id uint64, v string, label int) {
	md.elems[id] = Element{ID: id, Value: v, Label: label}
	if id >= md.next {
		md.next = id + 1
	}
}

// live returns the live elements sorted by ID, as Set.Elements does.
func (md *ledgerModel) live() []Element {
	var out []Element
	for id, e := range md.elems {
		if !md.dead[id] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// liveIn returns the IDs live in shard i, sorted: what a rebuild of the
// shard that starts now puts in its base.
func (md *ledgerModel) liveIn(i int) []uint64 {
	var ids []uint64
	for _, e := range md.live() {
		if e.ID%uint64(md.shards) == uint64(i) {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// rebuilt records that shard i's base now holds ids.
func (md *ledgerModel) rebuilt(i int, ids []uint64) {
	md.base[i] = map[uint64]bool{}
	for _, id := range ids {
		md.base[i][id] = true
	}
}

// TestDeletionLedgerMatchesModel drives one labelled set through a seeded
// single-goroutine mix of Add, AddWithID, Delete, compactions (one shard
// with a delete and an add racing its rebuild through the build hook, or
// the whole set) and save/load, and checks it against ledgerModel after
// every step: the live elements and size, each shard's tombstone and delta
// counts, an unbounded radius query, and that every deleted ID stays
// refused by both AddWithID and Delete.
func TestDeletionLedgerMatchesModel(t *testing.T) {
	ctx := context.Background()
	const shards = 3
	words := dataset.Spanish(120, 5).Strings
	corpus, pool := words[:30], words[30:]
	labels := make([]int, len(corpus))
	for i := range labels {
		labels[i] = i % 4
	}
	m := metric.Contextual()
	build := testBuilder(m, 4, 9)
	var onBuild func()
	cfg := Config{
		Shards: shards,
		Metric: m,
		Build: func(idx int, c [][]rune) search.Index {
			if f := onBuild; f != nil {
				onBuild = nil
				f()
			}
			return build(idx, c)
		},
		Algorithm:        "laesa",
		Workers:          1,
		CompactThreshold: 1 << 20, // compactions run only when the test asks
	}
	s, err := New(corpus, labels, cfg)
	if err != nil {
		t.Fatal(err)
	}
	md := &ledgerModel{shards: shards, elems: map[uint64]Element{}, dead: map[uint64]bool{}, base: make([]map[uint64]bool, shards)}
	for i, v := range corpus {
		md.insert(uint64(i), v, labels[i])
	}
	for i := range md.base {
		md.rebuilt(i, md.liveIn(i))
	}

	rng := rand.New(rand.NewSource(11))
	word := func() string { return pool[rng.Intn(len(pool))] }
	anyID := func() uint64 { return uint64(rng.Int63n(int64(md.next) + 3)) }
	add := func(step int) {
		v, label := word(), rng.Intn(4)
		id := s.Add(v, label)
		if id != md.next {
			t.Fatalf("step %d: Add minted %d, want %d", step, id, md.next)
		}
		md.insert(id, v, label)
	}
	addWithID := func(step int, id uint64) {
		_, known := md.elems[id]
		v, label := word(), rng.Intn(4)
		if got := s.AddWithID(id, v, label); got == known {
			t.Fatalf("step %d: AddWithID(%d) = %v, want %v", step, id, got, !known)
		}
		if !known {
			md.insert(id, v, label)
		}
	}
	del := func(step int, id uint64) {
		_, known := md.elems[id]
		want := known && !md.dead[id]
		if got := s.Delete(id); got != want {
			t.Fatalf("step %d: Delete(%d) = %v, want %v", step, id, got, want)
		}
		if want {
			md.dead[id] = true
		}
	}

	check := func(step int, op string) {
		t.Helper()
		want := md.live()
		if got := s.Elements(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): elements\n got %v\nwant %v", step, op, got, want)
		}
		if s.Size() != len(want) {
			t.Fatalf("step %d (%s): Size = %d, want %d", step, op, s.Size(), len(want))
		}
		if s.NextID() != md.next {
			t.Fatalf("step %d (%s): NextID = %d, want %d", step, op, s.NextID(), md.next)
		}
		for i, d := range s.Info().Detail {
			tombs, delta := 0, 0
			for id := range md.elems {
				switch {
				case id%shards != uint64(i):
				case md.base[i][id] && md.dead[id]:
					tombs++
				case !md.base[i][id] && !md.dead[id]:
					delta++
				}
			}
			if d.Tombstones != tombs || d.Delta != delta || d.Base != len(md.base[i]) {
				t.Fatalf("step %d (%s): shard %d info %+v, want base %d, %d tombstones, %d delta",
					step, op, i, d, len(md.base[i]), tombs, delta)
			}
		}
		hits, _, err := radius(s, []rune("q"), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(want) {
			t.Fatalf("step %d (%s): unbounded radius found %d elements, want %d", step, op, len(hits), len(want))
		}
		for _, h := range hits {
			if md.dead[h.ID] {
				t.Fatalf("step %d (%s): deleted ID %d answered a query", step, op, h.ID)
			}
		}
		for id := range md.dead {
			if s.AddWithID(id, "back", 0) {
				t.Fatalf("step %d (%s): AddWithID resurrected deleted ID %d", step, op, id)
			}
			if s.Delete(id) {
				t.Fatalf("step %d (%s): deleted ID %d deleted again", step, op, id)
			}
		}
	}

	check(0, "new")
	for step := 1; step <= 400; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 30:
			op = "add"
			add(step)
		case r < 40:
			op = "add with ID"
			id := anyID()
			if rng.Intn(3) == 0 {
				id = md.next + uint64(rng.Intn(5))
			}
			addWithID(step, id)
		case r < 78:
			op = "delete"
			del(step, anyID())
		case r < 88:
			// A delete of one of the shard's elements and an add into the
			// shard race its rebuild: the hook runs after the compaction
			// captured the live elements.
			op = "compact one shard"
			i := rng.Intn(shards)
			ids := md.liveIn(i)
			raced := false
			onBuild = func() {
				raced = true
				del(step, ids[rng.Intn(len(ids))])
				id := md.next
				for id%shards != uint64(i) {
					id++
				}
				addWithID(step, id)
			}
			s.compactShard(s.shards[i])
			if onBuild = nil; raced != (len(ids) > 0) {
				t.Fatalf("step %d: the rebuild of %d elements ran the hook: %v", step, len(ids), raced)
			}
			md.rebuilt(i, ids)
		case r < 93:
			op = "compact all"
			s.Compact()
			for i := range md.base {
				md.rebuilt(i, md.liveIn(i))
			}
		default:
			op = "save and load"
			store := blob.NewMemStore()
			if _, err := NewSaver(store).Save(ctx, s); err != nil {
				t.Fatal(err)
			}
			if s, _, err = LoadFromStore(ctx, store, cfg); err != nil {
				t.Fatal(err)
			}
		}
		check(step, op)
	}
	if len(md.dead) < 50 {
		t.Fatalf("only %d deletions in 400 steps: the mix exercises too little", len(md.dead))
	}
}

// TestDeleteCostIndependentOfLedger pins that a Delete allocates about
// the same whether its shard has seen 100 deletions or 10,000: the ledger
// grows in place, so a delete copies the delta it edits and nothing that
// scales with the shard's history.
func TestDeleteCostIndependentOfLedger(t *testing.T) {
	m := metric.Contextual()
	b, err := StandardBuild("linear", m, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nil, nil, Config{Shards: 1, Metric: m, Build: b, CompactThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Add(fmt.Sprintf("resident%d", i), 0)
	}
	churn := func(n int) {
		for i := 0; i < n; i++ {
			s.Delete(s.Add("churn", 0))
		}
	}
	const batch = 100
	bytesPerDelete := func() float64 {
		ids := make([]uint64, batch)
		for i := range ids {
			ids[i] = s.Add(fmt.Sprintf("batch%d", i), 0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range ids {
			if !s.Delete(id) {
				t.Fatalf("delete of %d failed", id)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / batch
	}
	churn(100)
	early := bytesPerDelete()
	churn(10_000 - 100 - batch)
	late := bytesPerDelete()
	if deleted := s.Info().Deletes; deleted != 10_000+batch {
		t.Fatalf("%d deletions, want %d", deleted, 10_000+batch)
	}
	if late > 2*early {
		t.Fatalf("a delete allocates %.0f B after 100 deletions but %.0f B after 10,000", early, late)
	}
	t.Logf("bytes per delete: %.0f after 100 deletions, %.0f after 10,000", early, late)
}
