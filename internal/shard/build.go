package shard

import (
	"fmt"
	"strings"

	"ced/internal/metric"
	"ced/internal/search"
)

// Kinds lists the index kinds StandardBuild accepts, in the order of the
// paper's §4.3 comparison: LAESA, the quadratic-preprocessing AESA, the
// dE-only BK-tree and the exhaustive baseline. It is the one menu of every
// entry point that picks an index kind by name. The VP-tree and the trie
// stay in internal/search for the searcher ablation only: neither beats
// these kinds on a query shape any workload asks for.
var Kinds = []string{"laesa", "aesa", "bktree", "linear"}

// StandardBuild returns the BuildFunc for one of Kinds — the same
// constructors the monolithic engine used, applied per shard. The random
// seed is offset by the shard index so shards draw distinct but
// reproducible choices; with one shard the built index is bit-identical to
// the monolithic one for the same parameters. The bktree prunes on integer
// distances and is refused under any metric but dE.
func StandardBuild(algorithm string, m metric.Metric, pivots int, seed int64, buildWorkers int) (BuildFunc, error) {
	if algorithm == "bktree" && m.Name() != "dE" {
		return nil, fmt.Errorf("shard: the bktree index requires dE, not %q", m.Name())
	}
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
	case "bktree":
		return func(_ int, runes [][]rune) search.Index {
			return search.NewBKTreeWorkers(runes, m, buildWorkers)
		}, nil
	case "linear":
		return func(_ int, runes [][]rune) search.Index {
			return search.NewLinear(runes, m)
		}, nil
	default:
		return nil, fmt.Errorf("shard: unknown index algorithm %q (known: %s)", algorithm, strings.Join(Kinds, ", "))
	}
}
