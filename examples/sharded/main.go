// Sharded: the full life of a mutable corpus — build a sharded index,
// mutate it online (add and delete without ever blocking queries), save a
// snapshot to a store directory, and cold-start a second index from it with
// zero distance computations.
//
// Run with:
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"os"

	"ced"
)

func main() {
	// Build: a 2k-word dictionary partitioned across 4 shards. Each shard
	// gets its own LAESA index; queries fan out and merge, passing the
	// running k-th-best distance into later shards so the bound ladder
	// rejects their candidates cheaply.
	dict := ced.GenerateSpanish(2000, 1)
	ix, err := ced.NewShardedIndex(dict, ced.Contextual(), ced.ShardedIndexConfig{
		Shards: 4,
		Pivots: 16,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("built: %d words, %d shards (%s per shard)\n", ix.Len(), ix.Shards(), ix.Algorithm())

	// Query: ordinary k-NN.
	query := dict.Strings[100] + "s"
	for _, r := range ix.KNearest(query, 3) {
		fmt.Printf("  %q -> %q  dC=%.4f  (id %d)\n", query, r.Value, r.Distance, r.ID)
	}

	// Add: new words are visible to the very next query. IDs are stable
	// handles — the initial corpus keeps its positions, adds mint the
	// next integer, and no ID is ever reused.
	id := ix.Add("cedilla", 0)
	if r, ok := ix.Nearest("cedilla"); ok {
		fmt.Printf("added %q as id %d; nearest(%q) = %q at %.4f\n", "cedilla", id, "cedilla", r.Value, r.Distance)
	}

	// Delete: tombstoned now, physically removed at the next compaction —
	// queries in flight are never blocked either way.
	victim, _ := ix.Nearest(dict.Strings[7])
	ix.Delete(victim.ID)
	after, _ := ix.Nearest(dict.Strings[7])
	fmt.Printf("deleted id %d (%q); nearest(%q) is now %q\n", victim.ID, victim.Value, dict.Strings[7], after.Value)
	fmt.Printf("live size: %d (= 2000 + 1 add - 1 delete)\n", ix.Len())

	// Snapshot: fold the mutation overlay in, then publish every shard's
	// base index to a store — a directory here; an http(s):// object-server
	// URL works the same. The reload recomputes nothing.
	ix.Compact()
	store, err := os.MkdirTemp("", "ced-sharded-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(store)
	ctx := context.Background()
	if err := ix.SaveTo(ctx, store); err != nil {
		panic(err)
	}
	fmt.Println("snapshot: saved to a store directory")

	// Reload: a cold start from the snapshot — same corpus, same answers,
	// zero index-build distance computations — and still fully mutable.
	warm, err := ced.LoadShardedIndex(ctx, store, ced.Contextual(), ced.ShardedIndexConfig{Pivots: 16})
	if err != nil {
		panic(err)
	}
	r, _ := warm.Nearest("cedilla")
	fmt.Printf("reloaded: %d words, %d shards; nearest(%q) = %q at %.4f\n",
		warm.Len(), warm.Shards(), "cedilla", r.Value, r.Distance)
	warm.Add("otra", 0)
	fmt.Printf("still mutable after reload: live size %d\n", warm.Len())
}
