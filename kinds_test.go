package ced

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"testing"

	"ced/internal/remote"
	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// TestIndexKinds pins the one index-kind menu: every entry point that
// picks an index kind by name accepts each of shard.Kinds under dC and dE
// (the bktree under dE only) and refuses the ablation-only vptree and
// trie, which LoadIndex refuses too.
func TestIndexKinds(t *testing.T) {
	corpus := []string{"casa", "cosa", "caso", "masa", "pasa"}
	entries := []struct {
		name  string
		build func(kind string, m Metric) error
	}{
		{"shard.StandardBuild", func(kind string, m Metric) error {
			_, err := shard.StandardBuild(kind, internalMetric(m), 2, 1, 1)
			return err
		}},
		{"NewIndex", func(kind string, m Metric) error {
			_, err := NewIndex(kind, corpus, m, 2)
			return err
		}},
		{"NewServer", func(kind string, m Metric) error {
			_, err := NewServer(&Dataset{Strings: corpus}, ServerConfig{Algorithm: kind, Metric: m, Pivots: 2, BuildWorkers: 1})
			return err
		}},
		{"NewShardedIndex", func(kind string, m Metric) error {
			_, err := NewShardedIndex(&Dataset{Strings: corpus}, m, ShardedIndexConfig{Algorithm: kind, Pivots: 2, BuildWorkers: 1})
			return err
		}},
		{"serve.New", func(kind string, m Metric) error {
			_, err := serve.New(corpus, nil, internalMetric(m), serve.Config{Algorithm: kind, Pivots: 2, BuildWorkers: 1})
			return err
		}},
		{"remote.NewShardServer", func(kind string, m Metric) error {
			_, err := remote.NewShardServer(remote.ServerConfig{Metric: internalMetric(m), Algorithm: kind})
			return err
		}},
	}
	for _, m := range []Metric{Contextual(), Levenshtein()} {
		for _, e := range entries {
			for _, kind := range shard.Kinds {
				err := e.build(kind, m)
				if want := kind != "bktree" || m.Name() == "dE"; (err == nil) != want {
					t.Errorf("%s(%q) under %s: err = %v, want accepted = %v", e.name, kind, m.Name(), err, want)
				}
			}
			for _, kind := range []string{"vptree", "trie"} {
				if err := e.build(kind, m); err == nil {
					t.Errorf("%s(%q) under %s accepted a retired kind", e.name, kind, m.Name())
				}
			}
		}
	}
	// A well-formed blob in the retired VP-tree codec's format: a
	// one-element tree.
	type vpFlatNode struct {
		Index           int
		Radius          float64
		Inside, Outside int
	}
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(struct {
		MetricName string
		Corpus     []string
		Nodes      []vpFlatNode
		Preprocess int
	}{"dC", []string{"casa"}, []vpFlatNode{{Inside: -1, Outside: -1}}, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex("vptree", &blob, Contextual()); err == nil {
		t.Error("LoadIndex accepted a VP-tree blob")
	}
	if _, err := LoadIndex("trie", &bytes.Buffer{}, Levenshtein()); err == nil {
		t.Error("LoadIndex accepted the trie")
	}
}

// TestNaNBoundAnswersNothing: a NaN radius or k-NN bound admits no
// distance. search.Request.Validate refuses it, so both servers answer
// 400, and every index kind answers it with no hit, also through
// Index.Radius and ShardedIndex.Radius, which do not validate.
func TestNaNBoundAnswersNothing(t *testing.T) {
	nan := math.NaN()
	for _, req := range []search.Request{search.Within(nan), search.KNN(1, nan)} {
		if err := req.Validate(); err == nil {
			t.Errorf("Validate accepted radius=%v bound %v", req.IsRadius(), req.Bound())
		}
	}
	words := []string{"casa", "cosa", "caso", "masa", "pasa", "gato", "gatos", "perro"}
	for _, kind := range shard.Kinds {
		m := Contextual()
		if kind == "bktree" {
			m = Levenshtein()
		}
		ix, err := NewIndex(kind, words, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		if hits := ix.Radius("casa", nan); len(hits) != 0 {
			t.Errorf("%s: Index.Radius(NaN) answered %d hits", kind, len(hits))
		}
		ans, err := ix.searcher.Query(context.Background(), []rune("casa"), search.KNN(3, nan))
		if err != nil || len(ans.Hits) != 0 {
			t.Errorf("%s: a k-NN query under a NaN bound answered %v, %v", kind, ans.Hits, err)
		}
		six, err := NewShardedIndex(&Dataset{Strings: words}, m, ShardedIndexConfig{Shards: 2, Algorithm: kind, Pivots: 3, BuildWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if hits, err := six.Radius("casa", nan); err != nil || len(hits) != 0 {
			t.Errorf("%s: ShardedIndex.Radius(NaN) answered %v, %v", kind, hits, err)
		}
	}
}
