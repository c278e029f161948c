package ced

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
)

// countingContextual is dC with a call counter, so a test can see whether
// an operation computes any distance.
type countingContextual struct{ n *atomic.Int64 }

func (c countingContextual) Name() string { return "dC" }

func (c countingContextual) Distance(a, b string) float64 {
	c.n.Add(1)
	return Contextual().Distance(a, b)
}

func shardedTestDataset() *Dataset {
	return &Dataset{
		Strings: []string{"casa", "cosa", "caso", "masa", "pasa", "queso", "gato", "gatos"},
		Labels:  []int{0, 0, 0, 1, 1, 2, 3, 3},
	}
}

func TestShardedIndexLifecycle(t *testing.T) {
	d := shardedTestDataset()
	ix, err := NewShardedIndex(d, Contextual(), ShardedIndexConfig{Shards: 3, Pivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(d.Strings) || ix.Shards() != 3 || ix.Algorithm() != "laesa" {
		t.Fatalf("shape: len=%d shards=%d algo=%q", ix.Len(), ix.Shards(), ix.Algorithm())
	}

	// Sharded answers match the monolithic index distance for distance.
	mono := NewLAESA(d.Strings, Contextual(), 3)
	for _, q := range []string{"cas", "gatito", "zzz"} {
		want := mono.KNearest(q, 4)
		got := ix.KNearest(q, 4)
		if len(got) != len(want) {
			t.Fatalf("query %q: %d results vs %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Distance != want[i].Distance {
				t.Errorf("query %q rank %d: %v vs %v", q, i, got[i].Distance, want[i].Distance)
			}
		}
	}

	id := ix.Add("gatita", 3)
	if id != uint64(len(d.Strings)) {
		t.Fatalf("minted ID = %d", id)
	}
	r, ok := ix.Nearest("gatita")
	if !ok || r.ID != id || r.Distance != 0 || r.Label != 3 {
		t.Fatalf("nearest after add = %+v", r)
	}
	p, err := ix.Classify("gatita")
	if err != nil || p.Label != 3 {
		t.Fatalf("classify = %+v err=%v", p, err)
	}
	if !ix.Delete(0) || ix.Delete(0) {
		t.Fatal("delete semantics broken")
	}
	if ix.Len() != len(d.Strings) {
		t.Fatalf("live len = %d", ix.Len())
	}
	hits, err := ix.Radius("casa", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.ID == 0 {
			t.Fatalf("deleted element in radius hits: %+v", hits)
		}
	}

	// Snapshot round-trip through a store directory: compaction first for
	// a delta-free save, then a reload that computes no distance at all,
	// and equal answers. A second save after a mutation carries the
	// overlay too.
	ctx := context.Background()
	dir := t.TempDir()
	ix.Compact()
	if err := ix.SaveTo(ctx, dir); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	loaded, err := LoadShardedIndex(ctx, dir, countingContextual{&calls}, ShardedIndexConfig{Pivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("loading the snapshot computed %d distances, want 0", n)
	}
	if loaded.Len() != ix.Len() || loaded.Shards() != ix.Shards() {
		t.Fatalf("loaded shape: len=%d shards=%d", loaded.Len(), loaded.Shards())
	}
	for _, q := range []string{"cas", "gatita", "queso"} {
		want := ix.KNearest(q, 3)
		got := loaded.KNearest(q, 3)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("query %q rank %d: %+v vs %+v", q, i, got[i], want[i])
			}
		}
	}
	if loaded.Delete(0) {
		t.Fatal("pre-save delete forgotten: id 0 deleted again after reload")
	}
	if id := loaded.Add("gatote", 3); id <= uint64(len(d.Strings)) {
		t.Fatalf("post-load ID %d not beyond pre-save IDs", id)
	}
	if err := loaded.SaveTo(ctx, dir); err != nil {
		t.Fatal(err)
	}
	again, err := LoadShardedIndex(ctx, dir, Contextual(), ShardedIndexConfig{Pivots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := again.Nearest("gatote"); !ok || r.Value != "gatote" || r.Distance != 0 {
		t.Fatalf("second save lost the added element: %+v", r)
	}
	if _, err := LoadShardedIndex(ctx, dir, Levenshtein(), ShardedIndexConfig{Pivots: 3}); err == nil {
		t.Error("metric mismatch should fail")
	}
	if _, err := LoadShardedIndex(ctx, t.TempDir(), Contextual(), ShardedIndexConfig{Pivots: 3}); err == nil {
		t.Error("an empty store should fail to load")
	}
}

func TestShardedIndexValidation(t *testing.T) {
	d := shardedTestDataset()
	if _, err := NewShardedIndex(d, Contextual(), ShardedIndexConfig{Algorithm: "bktree"}); err == nil {
		t.Error("bktree with dC should fail")
	}
	if _, err := NewShardedIndex(d, Contextual(), ShardedIndexConfig{Algorithm: "quadtree"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := NewShardedIndex(d, nil, ShardedIndexConfig{}); err == nil {
		t.Error("nil metric should fail")
	}
}

func TestLoadIndexAllKinds(t *testing.T) {
	d := shardedTestDataset()
	for _, algo := range []string{"laesa", "bktree"} {
		m := Metric(Contextual())
		if algo == "bktree" {
			m = Levenshtein()
		}
		ix, err := NewIndex(algo, d.Strings, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		loaded, err := LoadIndex(algo, &buf, m)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if loaded.Len() != ix.Len() || loaded.Algorithm() != algo {
			t.Fatalf("%s: loaded %q with %d elements", algo, loaded.Algorithm(), loaded.Len())
		}
		for _, q := range []string{"cas", "gat"} {
			want := ix.Nearest(q)
			got := loaded.Nearest(q)
			if got.Value != want.Value || got.Distance != want.Distance {
				t.Errorf("%s query %q: %+v vs %+v", algo, q, got, want)
			}
		}
	}
	// The structure-only indexes refuse to save.
	lin := NewLinear(d.Strings, Contextual())
	if err := lin.Save(&bytes.Buffer{}); err == nil {
		t.Error("linear Save should fail")
	}
	if _, err := LoadIndex("trie", &bytes.Buffer{}, Levenshtein()); err == nil {
		t.Error("trie LoadIndex should fail")
	}
}
