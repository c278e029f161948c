package ced

import (
	"bytes"
	"encoding/gob"
	"testing"

	"ced/internal/remote"
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
