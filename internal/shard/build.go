package shard

import (
	"fmt"

	"ced/internal/metric"
	"ced/internal/search"
)

// StandardBuild returns the BuildFunc for one of the repository's index
// kinds — the same constructors the monolithic engine used, applied per
// shard. The random seed is offset by the shard index so shards draw
// distinct but reproducible choices; with one shard the built index is
// bit-identical to the monolithic one for the same parameters. Metric
// restrictions (bktree and trie require dE) are the caller's to enforce —
// this function only resolves names.
func StandardBuild(algorithm string, m metric.Metric, pivots int, seed int64, buildWorkers int) (BuildFunc, error) {
	switch algorithm {
	case "laesa":
		return func(shardIdx int, runes [][]rune) search.Index {
			p := pivots
			if p > len(runes) {
				p = len(runes)
			}
			return search.NewLAESAWorkers(runes, m, p, search.MaxSum, seed+int64(shardIdx), buildWorkers)
		}, nil
	case "aesa":
		return func(_ int, runes [][]rune) search.Index {
			return search.NewAESAWorkers(runes, m, buildWorkers)
		}, nil
	case "linear":
		return func(_ int, runes [][]rune) search.Index {
			return search.NewLinear(runes, m)
		}, nil
	case "vptree":
		return func(shardIdx int, runes [][]rune) search.Index {
			return search.NewVPTreeWorkers(runes, m, seed+int64(shardIdx), buildWorkers)
		}, nil
	case "bktree":
		return func(_ int, runes [][]rune) search.Index {
			return search.NewBKTreeWorkers(runes, m, buildWorkers)
		}, nil
	case "trie":
		return func(_ int, runes [][]rune) search.Index {
			return search.NewTrie(runes)
		}, nil
	default:
		return nil, fmt.Errorf("shard: unknown index algorithm %q", algorithm)
	}
}
