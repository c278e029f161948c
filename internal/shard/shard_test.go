package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ced/internal/blob"
	"ced/internal/dataset"
	"ced/internal/metric"
	"ced/internal/search"
)

// testBuilder returns the LAESA build function the tests shard with; the
// per-shard seed offset keeps shard indexes distinct but deterministic.
func testBuilder(m metric.Metric, pivots int, seed int64) BuildFunc {
	return func(idx int, corpus [][]rune) search.Index {
		p := pivots
		if p > len(corpus) {
			p = len(corpus)
		}
		return search.NewLAESAWorkers(corpus, m, p, search.MaxSum, seed+int64(idx), 0)
	}
}

// knn, radius, nearest and classify drive Set.Query the way callers ask
// the four questions.
func knn(s *Set, q []rune, k int) ([]Hit, Stats) {
	hits, st, err := s.Query(context.Background(), q, search.KNN(k, math.Inf(1)))
	if err != nil {
		panic(err)
	}
	return hits, st
}

func radius(s *Set, q []rune, r float64) ([]Hit, Stats, error) {
	return s.Query(context.Background(), q, search.Within(r))
}

func nearest(s *Set, q []rune) (Hit, Stats, bool) {
	hits, st := knn(s, q, 1)
	if len(hits) == 0 {
		return Hit{}, st, false
	}
	return hits[0], st, true
}

func classify(s *Set, q []rune) (Hit, Stats, error) {
	if !s.Labelled() {
		return Hit{}, Stats{}, fmt.Errorf("unlabelled set")
	}
	hit, st, ok := nearest(s, q)
	if !ok {
		return Hit{}, st, fmt.Errorf("empty set")
	}
	return hit, st, nil
}

func newTestSet(t *testing.T, corpus []string, labels []int, shards int) *Set {
	t.Helper()
	m := metric.Contextual()
	s, err := New(corpus, labels, Config{
		Shards:    shards,
		Metric:    m,
		Build:     testBuilder(m, 8, 42),
		Algorithm: "laesa",
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var unitCorpus = []string{"casa", "cosa", "caso", "masa", "pasa", "queso", "gato", "gatos", "pato", "plato"}

func TestNewValidation(t *testing.T) {
	m := metric.Contextual()
	build := testBuilder(m, 4, 1)
	if _, err := New(unitCorpus, nil, Config{Metric: nil, Build: build}); err == nil {
		t.Error("nil metric should fail")
	}
	if _, err := New(unitCorpus, nil, Config{Metric: m}); err == nil {
		t.Error("nil build should fail")
	}
	if _, err := New(unitCorpus, []int{1}, Config{Metric: m, Build: build}); err == nil {
		t.Error("label length mismatch should fail")
	}
	s, err := New(nil, nil, Config{Metric: m, Build: build, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 0 {
		t.Errorf("empty set size = %d", s.Size())
	}
	if hits, _ := knn(s, []rune("x"), 2); len(hits) != 0 {
		t.Errorf("empty set returned %d hits", len(hits))
	}
}

func TestLiveSizeTracksMutations(t *testing.T) {
	s := newTestSet(t, unitCorpus, nil, 3)
	if s.Size() != len(unitCorpus) {
		t.Fatalf("initial size = %d, want %d", s.Size(), len(unitCorpus))
	}
	id := s.Add("gatito", 0)
	if id != uint64(len(unitCorpus)) {
		t.Errorf("first minted ID = %d, want %d", id, len(unitCorpus))
	}
	if s.Size() != len(unitCorpus)+1 {
		t.Errorf("size after add = %d", s.Size())
	}
	if !s.Delete(0) {
		t.Error("deleting a base element should succeed")
	}
	if s.Delete(0) {
		t.Error("double delete should report false")
	}
	if !s.Delete(id) {
		t.Error("deleting a delta element should succeed")
	}
	if s.Delete(99999) {
		t.Error("deleting an unknown ID should report false")
	}
	if s.Size() != len(unitCorpus)-1 {
		t.Errorf("size after deletes = %d, want %d", s.Size(), len(unitCorpus)-1)
	}
}

func TestQueriesSeeMutationsImmediately(t *testing.T) {
	s := newTestSet(t, unitCorpus, nil, 2)
	id := s.Add("zzzyzx", 0)
	hit, _, ok := nearest(s, []rune("zzzyzx"))
	if !ok || hit.ID != id || hit.Distance != 0 || hit.Value != "zzzyzx" {
		t.Fatalf("added element not found: %+v ok=%v", hit, ok)
	}
	s.Delete(id)
	hit, _, ok = nearest(s, []rune("zzzyzx"))
	if !ok {
		t.Fatal("set should not be empty")
	}
	if hit.ID == id || hit.Distance == 0 {
		t.Fatalf("deleted element resurfaced: %+v", hit)
	}
	// Deleting the nearest base element must surface the runner-up.
	first, _, _ := nearest(s, []rune("casa"))
	s.Delete(first.ID)
	next, _, _ := nearest(s, []rune("casa"))
	if next.ID == first.ID {
		t.Fatalf("deleted base element %d still returned", first.ID)
	}
}

func TestTombstonesDoNotCrowdOutLiveResults(t *testing.T) {
	// Delete the 3 nearest elements to the query; a k=3 query must then
	// return the next 3 live ones, not fewer, and a k of math.MaxInt every
	// live one: the base query masks the tombstones out rather than
	// spending its k on them.
	s := newTestSet(t, unitCorpus, nil, 1)
	hits, _ := knn(s, []rune("cas"), 3)
	for _, h := range hits {
		s.Delete(h.ID)
	}
	after, _ := knn(s, []rune("cas"), 3)
	if len(after) != 3 {
		t.Fatalf("got %d hits, want 3", len(after))
	}
	if all, _ := knn(s, []rune("cas"), math.MaxInt); len(all) != s.Size() {
		t.Fatalf("k = MaxInt: got %d hits, want all %d live elements", len(all), s.Size())
	}
	for _, h := range after {
		for _, d := range hits {
			if h.ID == d.ID {
				t.Fatalf("deleted element %d returned", d.ID)
			}
		}
	}
}

// TestTombstoneMaskFollowsEveryPath deletes the probe's nearest base
// element through each path that replaces a shard's tombstones — Delete, a
// delete racing a compaction's rebuild, and a snapshot load — and checks
// the probe's k nearest after each. The base index excludes tombstones
// itself, and nothing filters its hits afterwards, so a path that left the
// mask stale would return the deleted element.
func TestTombstoneMaskFollowsEveryPath(t *testing.T) {
	ctx := context.Background()
	m := metric.Contextual()
	build := testBuilder(m, 4, 42)
	var onBuild func()
	s, err := New(unitCorpus, nil, Config{
		Shards: 1,
		Metric: m,
		Build: func(idx int, corpus [][]rune) search.Index {
			if onBuild != nil {
				onBuild()
			}
			return build(idx, corpus)
		},
		Algorithm:        "laesa",
		CompactThreshold: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := []rune("casa")
	const k = 3
	check := func(path string, set *Set, deleted uint64) {
		t.Helper()
		hits, _ := knn(set, probe, k)
		if len(hits) != k {
			t.Fatalf("after %s: %d hits, want %d", path, len(hits), k)
		}
		for _, h := range hits {
			if h.ID == deleted {
				t.Fatalf("after %s: deleted element %d returned", path, deleted)
			}
		}
	}

	near, _, _ := nearest(s, probe)
	if !s.Delete(near.ID) {
		t.Fatalf("delete of %d failed", near.ID)
	}
	check("Delete", s, near.ID)

	near, _, _ = nearest(s, probe)
	onBuild = func() {
		onBuild = nil
		s.Delete(near.ID)
	}
	s.compactShard(s.shards[0])
	st := s.shards[0].state.Load()
	if _, inBase := st.baseByID[near.ID]; !inBase || st.tombstones() != 1 {
		t.Fatalf("the delete did not race the rebuild: in base %v, %d tombstones", inBase, st.tombstones())
	}
	check("a compaction swap", s, near.ID)

	near, _, _ = nearest(s, probe)
	s.Delete(near.ID)
	store, err := blob.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSaver(store).Save(ctx, s); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadFromStore(ctx, store, Config{Metric: m, Build: build, Algorithm: "laesa"})
	if err != nil {
		t.Fatal(err)
	}
	check("a snapshot load", loaded, near.ID)
}

func TestClassify(t *testing.T) {
	labels := make([]int, len(unitCorpus))
	for i := range labels {
		labels[i] = i % 3
	}
	s := newTestSet(t, unitCorpus, labels, 2)
	hit, _, err := classify(s, []rune("queso"))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Value != "queso" || hit.Label != labels[5] {
		t.Errorf("classify = %+v, want label %d", hit, labels[5])
	}
	id := s.Add("quesadilla", 7)
	hit, _, err = classify(s, []rune("quesadilla"))
	if err != nil || hit.ID != id || hit.Label != 7 {
		t.Errorf("classify after add = %+v err=%v", hit, err)
	}

	unlabelled := newTestSet(t, unitCorpus, nil, 2)
	if _, _, err := classify(unlabelled, []rune("queso")); err == nil {
		t.Error("classify on unlabelled set should fail")
	}
}

// TestRadiusStatsCountEveryShard pins the radius accounting: every shard's
// work, ladder rejections included, counts whether or not the shard found
// a hit. A linear index evaluates each candidate against the same radius
// however the corpus is split, so 1 and 4 shards must report identical
// Stats, and a zero-hit query still reports the rejections it spent.
func TestRadiusStatsCountEveryShard(t *testing.T) {
	d := dataset.Spanish(400, 9)
	m := metric.Levenshtein()
	build, err := StandardBuild("linear", m, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sets []*Set
	for _, shards := range []int{1, 4} {
		s, err := New(d.Strings, nil, Config{Shards: shards, Metric: m, Build: build, Algorithm: "linear"})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	sawEmpty := false
	for _, q := range []string{d.Strings[3], "qqqqqqqqq"} {
		for _, r := range []float64{0, 1} {
			h1, st1, err1 := radius(sets[0], []rune(q), r)
			h4, st4, err4 := radius(sets[1], []rune(q), r)
			if err1 != nil || err4 != nil {
				t.Fatal(err1, err4)
			}
			if !slices.Equal(h1, h4) || st1 != st4 {
				t.Fatalf("%q r=%v: 1 shard %v %+v, 4 shards %v %+v", q, r, h1, st1, h4, st4)
			}
			if st4.Computations != len(d.Strings) || st4.Rejections.Total() == 0 {
				t.Fatalf("%q r=%v: stats %+v", q, r, st4)
			}
			sawEmpty = sawEmpty || len(h4) == 0
		}
	}
	if !sawEmpty {
		t.Fatal("no zero-hit query exercised")
	}
}

func TestRadiusMatchesLinearScan(t *testing.T) {
	m := metric.Contextual()
	s := newTestSet(t, unitCorpus, nil, 3)
	s.Add("gatito", 0)
	s.Delete(1)
	q := []rune("gato")
	r := 0.5
	hits, _, err := radius(s, q, r)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i, v := range unitCorpus {
		if i == 1 {
			continue
		}
		if m.Distance(q, []rune(v)) <= r {
			want[v] = true
		}
	}
	if m.Distance(q, []rune("gatito")) <= r {
		want["gatito"] = true
	}
	if len(hits) != len(want) {
		t.Fatalf("radius hits = %v, want %v", hits, want)
	}
	for i, h := range hits {
		if !want[h.Value] {
			t.Errorf("unexpected hit %+v", h)
		}
		if i > 0 && hits[i-1].Distance > h.Distance {
			t.Errorf("hits not sorted: %v", hits)
		}
	}
}

func TestCompactionPreservesAnswers(t *testing.T) {
	d := dataset.Spanish(300, 7)
	s := newTestSet(t, d.Strings, nil, 4)
	var addedIDs []uint64
	for i := 0; i < 40; i++ {
		addedIDs = append(addedIDs, s.Add(fmt.Sprintf("palabra%02d", i), 0))
	}
	for i := 0; i < 30; i += 3 {
		s.Delete(uint64(i))
	}
	s.Delete(addedIDs[0])

	queries := []string{"palabra01", "casa", "perro", "zzz"}
	type answer struct {
		hits []Hit
	}
	before := make([]answer, len(queries))
	for i, q := range queries {
		hits, _ := knn(s, []rune(q), 5)
		before[i] = answer{hits: hits}
	}
	sizeBefore := s.Size()

	s.Compact()

	info := s.Info()
	if info.Compactions == 0 {
		t.Fatal("Compact did not run")
	}
	for i, si := range info.Detail {
		if si.Delta != 0 || si.Tombstones != 0 {
			t.Errorf("shard %d overlay not folded: %+v", i, si)
		}
	}
	if s.Size() != sizeBefore {
		t.Errorf("size changed across compaction: %d -> %d", sizeBefore, s.Size())
	}
	for i, q := range queries {
		hits, _ := knn(s, []rune(q), 5)
		if len(hits) != len(before[i].hits) {
			t.Fatalf("query %q: %d hits after compaction, want %d", q, len(hits), len(before[i].hits))
		}
		for j := range hits {
			if hits[j].Distance != before[i].hits[j].Distance {
				t.Errorf("query %q rank %d: distance %v after compaction, want %v",
					q, j, hits[j].Distance, before[i].hits[j].Distance)
			}
		}
	}
}

func TestBackgroundCompactionTriggers(t *testing.T) {
	m := metric.Contextual()
	s, err := New(unitCorpus, nil, Config{
		Shards:           2,
		Metric:           m,
		Build:            testBuilder(m, 4, 1),
		CompactThreshold: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		s.Add(fmt.Sprintf("auto%03d", i), 0)
	}
	s.Wait()
	if s.Info().Compactions == 0 {
		t.Fatal("threshold crossings never scheduled a compaction")
	}
	if s.Size() != len(unitCorpus)+64 {
		t.Errorf("size = %d, want %d", s.Size(), len(unitCorpus)+64)
	}
	// Every added element must still be findable after the swaps.
	for i := 0; i < 64; i++ {
		w := fmt.Sprintf("auto%03d", i)
		hit, _, ok := nearest(s, []rune(w))
		if !ok || hit.Value != w || hit.Distance != 0 {
			t.Fatalf("element %q lost after compaction: %+v", w, hit)
		}
	}
}

// TestSaveLoadRoundTrip round-trips a labelled, mutated set through a
// store, for a base with a serialised index (laesa) and one rebuilt from
// its corpus at load (linear): the reload computes no distance, answers
// like the saved set, and keeps mutating correctly — the ID allocator
// continues past every pre-save ID, and a pre-save tombstone can be
// neither deleted again nor resurrected.
func TestSaveLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	labels := make([]int, len(unitCorpus))
	for i := range labels {
		labels[i] = i % 2
	}
	for _, algo := range []string{"laesa", "linear"} {
		t.Run(algo, func(t *testing.T) {
			build := func(m metric.Metric) BuildFunc {
				if algo == "linear" {
					b, err := StandardBuild("linear", m, 0, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				return testBuilder(m, 8, 42)
			}
			m := metric.Contextual()
			s, err := New(unitCorpus, labels, Config{Shards: 3, Metric: m, Build: build(m), Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			addID := s.Add("nuevo", 1)
			s.Delete(2)

			store, err := blob.NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewSaver(store).Save(ctx, s); err != nil {
				t.Fatal(err)
			}
			counter := &metric.Counter{M: metric.Contextual()}
			loaded, _, err := LoadFromStore(ctx, store, Config{Metric: counter, Build: build(counter), Algorithm: algo, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if counter.N != 0 {
				t.Fatalf("loading computed %d distances, want 0", counter.N)
			}
			if loaded.Shards() != 3 || loaded.Size() != s.Size() || !loaded.Labelled() {
				t.Fatalf("loaded shape: shards=%d size=%d labelled=%v", loaded.Shards(), loaded.Size(), loaded.Labelled())
			}
			if loaded.NextID() != s.NextID() {
				t.Errorf("NextID = %d, want %d", loaded.NextID(), s.NextID())
			}
			for _, q := range []string{"casa", "nuevo", "gat", "xyz"} {
				want, _ := knn(s, []rune(q), 4)
				got, _ := knn(loaded, []rune(q), 4)
				if len(got) != len(want) {
					t.Fatalf("query %q: %d hits vs %d", q, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("query %q rank %d: %+v vs %+v", q, i, got[i], want[i])
					}
				}
			}
			id2 := loaded.Add("tras", 0)
			if id2 <= addID {
				t.Errorf("post-load ID %d not beyond pre-save IDs", id2)
			}
			if loaded.Delete(2) {
				t.Error("pre-save tombstone forgotten: delete of id 2 succeeded again")
			}
			if loaded.AddWithID(2, "resurrect", 0) {
				t.Error("pre-save tombstone resurrected")
			}
		})
	}
}

// TestLoadRejectsMismatches: LoadFromStore refuses a snapshot saved under
// another metric or algorithm, a store holding only unreadable manifests,
// and an empty store — the last one, alone, as ErrNoSnapshot.
func TestLoadRejectsMismatches(t *testing.T) {
	ctx := context.Background()
	s := newTestSet(t, unitCorpus, nil, 2)
	store := blob.NewMemStore()
	if _, err := NewSaver(store).Save(ctx, s); err != nil {
		t.Fatal(err)
	}

	m := metric.Levenshtein()
	if _, _, err := LoadFromStore(ctx, store, Config{Metric: m, Build: testBuilder(m, 8, 42)}); err == nil {
		t.Error("metric mismatch should fail")
	} else if !strings.Contains(err.Error(), "dC") {
		t.Errorf("error should name the saved metric: %v", err)
	}
	mc := metric.Contextual()
	if _, _, err := LoadFromStore(ctx, store, Config{Metric: mc, Build: testBuilder(mc, 8, 42), Algorithm: "aesa"}); err == nil {
		t.Error("algorithm mismatch should fail")
	}

	garbage := blob.NewMemStore()
	if err := garbage.Put(ctx, manifestKey(1), []byte("not a manifest")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFromStore(ctx, garbage, storeCfg(mc)); err == nil || errors.Is(err, ErrNoSnapshot) {
		t.Errorf("garbage manifest: err = %v, want a load failure other than ErrNoSnapshot", err)
	}
	if _, _, err := LoadFromStore(ctx, blob.NewMemStore(), storeCfg(mc)); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("empty store: err = %v, want ErrNoSnapshot", err)
	}
}

func TestStatsAccountEveryEvaluation(t *testing.T) {
	s := newTestSet(t, unitCorpus, nil, 1)
	s.Add("extra", 0)
	_, st := knn(s, []rune("cas"), 3)
	if st.Computations <= 0 || st.Computations > len(unitCorpus)+1 {
		t.Errorf("computations = %d", st.Computations)
	}
	var rej int64
	for _, n := range st.Rejections {
		rej += n
	}
	if rej > int64(st.Computations) {
		t.Errorf("%d rejections for %d computations", rej, st.Computations)
	}
}

func TestKNearestBoundedContract(t *testing.T) {
	// The cross-shard bound passed into a shard query must never cost a
	// result that a monolithic query would return: seed bounds at the true
	// k-th distance and check the top-k distances are unchanged.
	d := dataset.Spanish(200, 3)
	mc := metric.Contextual()
	me := metric.Levenshtein() // the integer metric bktree and trie require
	corpus := make([][]rune, len(d.Strings))
	for i, v := range d.Strings {
		corpus[i] = []rune(v)
	}
	for name, idx := range map[string]search.Index{
		"linear": search.NewLinear(corpus, mc),
		"laesa":  search.NewLAESAWorkers(corpus, mc, 8, search.MaxSum, 5, 0),
		"vptree": search.NewVPTree(corpus, mc, 5),
		"aesa":   search.NewAESAWorkers(corpus, mc, 0),
		"bktree": search.NewBKTreeWorkers(corpus, me, 0),
		"trie":   search.NewTrie(corpus),
	} {
		for _, q := range []string{"casa", "xyzzy", d.Strings[17]} {
			want := idx.KNearest([]rune(q), 5)
			kth := want[len(want)-1].Distance
			for _, bound := range []float64{math.Inf(1), kth, kth * 2} {
				ans, _ := idx.Query(context.Background(), []rune(q), search.KNN(5, bound))
				got := ans.Hits
				if len(got) != len(want) {
					t.Fatalf("%s %q bound=%v: %d results, want %d", name, q, bound, len(got), len(want))
				}
				for i := range want {
					if got[i].Distance != want[i].Distance {
						t.Errorf("%s %q bound=%v rank %d: distance %v, want %v",
							name, q, bound, i, got[i].Distance, want[i].Distance)
					}
				}
			}
		}
	}
}
