package search

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"ced/internal/metric"
)

// ctxSearchers builds every searcher over the same corpus: the
// fractional-metric family on dC,h and the BK-tree and trie on integer dE.
func ctxSearchers(corpus [][]rune) map[string]Index {
	m := metric.ContextualHeuristic()
	return map[string]Index{
		"linear": NewLinear(corpus, m),
		"laesa":  NewLAESA(corpus, m, 8, MaxSum, 41),
		"vptree": NewVPTree(corpus, m, 42),
		"aesa":   NewAESA(corpus, m),
		"bktree": NewBKTree(corpus, metric.Levenshtein()),
		"trie":   NewTrie(corpus),
	}
}

// mapOrdered reports whether a searcher walks children in Go map order
// (the BK-tree's edges, the trie's runes): its answers are deterministic,
// but a k-NN walk's computation count depends on which equal-distance
// candidate shrank the bound first.
func mapOrdered(name string) bool { return name == "bktree" || name == "trie" }

// TestCtxSearchBitIdenticalWhenLive pins the zero-cost happy path: with a
// cancellable context that never fires, every searcher must answer exactly
// what it answers under an uncancellable context — same hits, same
// computation count, same stage ladder — because the checkpoint only ever
// reads a counter until the context actually cancels. The map-ordered
// walks' k-NN counters vary run to run to begin with, so only their
// answers are compared.
func TestCtxSearchBitIdenticalWhenLive(t *testing.T) {
	corpus := boundedCorpus(150, 10, 31)
	queries := boundedCorpus(10, 10, 32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, s := range ctxSearchers(corpus) {
		for _, q := range queries {
			for _, req := range []Request{KNN(5, math.Inf(1)), Within(0.4)} {
				want, err := s.Query(context.Background(), q, req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Query(ctx, q, req)
				if err != nil {
					t.Fatalf("%s(%q): live context returned %v", name, string(q), err)
				}
				if !reflect.DeepEqual(got.Hits, want.Hits) {
					t.Fatalf("%s(%q, %+v): ctx path changed the answer: %v vs %v", name, string(q), req, got.Hits, want.Hits)
				}
				if (!mapOrdered(name) || req.IsRadius()) && got.Stats != want.Stats {
					t.Fatalf("%s(%q, %+v): ctx path diverged: %+v vs %+v", name, string(q), req, got.Stats, want.Stats)
				}
			}
		}
	}
}

// cancelLatency bounds how much work a cancelled query may still spend:
// the checkpoint polls its context once per stride (64) Hit calls, so a
// pre-cancelled query stops within one stride of loop iterations — plus a
// small fixed overhead (LAESA's up-front pivot distances) folded into the
// factor of two here.
const cancelLatency = 128

// TestCtxSearchCancelledStopsCounting pins the core cancellation semantics:
// a pre-cancelled context yields the context's error, a nil result slice (a
// partial top-k is not an answer), and a computation count that provably
// stopped growing — bounded by the checkpoint stride, far below what the
// full scan spends — and that stays put on every subsequent call. k exceeds
// the stride so even the most elimination-happy searcher (AESA answers many
// queries in under a stride of evaluations, which a cancelled context
// deliberately lets finish) must cross a checkpoint poll before it could
// complete.
func TestCtxSearchCancelledStopsCounting(t *testing.T) {
	corpus := boundedCorpus(2000, 10, 33)
	q := []rune("abcabcab")
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range ctxSearchers(corpus) {
		knn := KNN(256, math.Inf(1))
		full, _ := s.Query(context.Background(), q, knn)
		res, err := s.Query(done, q, knn)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled query returned err=%v", name, err)
		}
		if res.Hits != nil {
			t.Fatalf("%s: cancelled query leaked a partial result of %d hits", name, len(res.Hits))
		}
		if res.Computations > cancelLatency || res.Computations >= full.Computations {
			t.Fatalf("%s: cancelled query still spent %d of %d computations", name, res.Computations, full.Computations)
		}
		again, err := s.Query(done, q, knn)
		if !errors.Is(err, context.Canceled) || again.Hits != nil || again.Computations != res.Computations {
			t.Fatalf("%s: second cancelled query drifted: comps %d vs %d, err %v", name, again.Computations, res.Computations, err)
		}

		// Radius scans with heavy elimination may finish inside one stride —
		// then completing is the documented behaviour; assert early stop only
		// where the full scan provably crosses checkpoint polls.
		fullR, _ := s.Query(context.Background(), q, Within(0.4))
		rres, err := s.Query(done, q, Within(0.4))
		if fullR.Computations >= 2*cancelLatency {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s radius: cancelled query returned err=%v", name, err)
			}
			if rres.Hits != nil || rres.Computations > cancelLatency {
				t.Fatalf("%s radius: cancelled query returned %d hits after %d of %d computations", name, len(rres.Hits), rres.Computations, fullR.Computations)
			}
		}
	}
}

// TestCtxSearchDeadlinePropagates distinguishes the two cancellation
// causes: an expired deadline must surface as context.DeadlineExceeded so
// the HTTP layer can answer 504 rather than 499.
func TestCtxSearchDeadlinePropagates(t *testing.T) {
	corpus := boundedCorpus(2000, 10, 34)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, s := range ctxSearchers(corpus) {
		if _, err := s.Query(expired, []rune("abcd"), KNN(256, math.Inf(1))); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: expired deadline surfaced as %v", name, err)
		}
	}
}

// TestCtxSearchScratchSurvivesCancel interleaves cancelled and live
// queries: the early return taken on cancellation must leave pooled scratch
// (LAESA's lower-bound arrays, the shared heaps) clean, so every live query
// that follows stays bit-identical to an undisturbed baseline.
func TestCtxSearchScratchSurvivesCancel(t *testing.T) {
	corpus := boundedCorpus(400, 10, 35)
	queries := boundedCorpus(8, 10, 36)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := 0
	live := context.Background()
	for name, s := range ctxSearchers(corpus) {
		for _, q := range queries {
			wantK, _ := s.Query(live, q, KNN(5, math.Inf(1)))
			wantR, _ := s.Query(live, q, Within(0.4))
			for i := 0; i < 3; i++ {
				// A query cheap enough to finish inside one checkpoint stride
				// may legally complete; what matters is that every early
				// return taken leaves the shared scratch clean.
				if _, err := s.Query(done, q, KNN(200, math.Inf(1))); err != nil {
					cancelled++
				}
				if _, err := s.Query(done, q, Within(0.4)); err != nil {
					cancelled++
				}
				gotK, _ := s.Query(live, q, KNN(5, math.Inf(1)))
				if !reflect.DeepEqual(gotK.Hits, wantK.Hits) || (!mapOrdered(name) && gotK.Stats != wantK.Stats) {
					t.Fatalf("%s(%q): results drifted after a cancelled query", name, string(q))
				}
				if gotR, _ := s.Query(live, q, Within(0.4)); !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("%s radius(%q): results drifted after a cancelled query", name, string(q))
				}
			}
		}
	}
	if cancelled == 0 {
		t.Fatal("no query ever observed the cancellation — the scratch path was not exercised")
	}
}
