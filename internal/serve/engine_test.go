package serve

import (
	"context"
	"math"
	"strings"
	"testing"

	"ced/internal/metric"
	"ced/internal/shard"
)

var (
	testCorpus = []string{"casa", "cosa", "caso", "masa", "pasa", "queso", "gato", "gatos"}
	testLabels = []int{0, 0, 0, 1, 1, 2, 3, 3}
)

func newTestEngine(t *testing.T, algorithm string) *Engine {
	t.Helper()
	m := metric.ContextualHeuristic()
	if algorithm == "bktree" {
		m = metric.Levenshtein()
	}
	e, err := New(testCorpus, testLabels, m, Config{Algorithm: algorithm, Pivots: 3, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	m := metric.Levenshtein()
	if _, err := New(nil, nil, m, Config{}); err == nil {
		t.Error("empty corpus should fail")
	}
	if _, err := New(testCorpus, []int{1, 2}, m, Config{}); err == nil {
		t.Error("label length mismatch should fail")
	}
	if _, err := New(testCorpus, nil, nil, Config{}); err == nil {
		t.Error("nil metric should fail")
	}
	if _, err := New(testCorpus, nil, m, Config{Algorithm: "quadtree"}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	if _, err := New(testCorpus, nil, metric.Contextual(), Config{Algorithm: "bktree"}); err == nil {
		t.Error("bktree with a fractional metric should fail")
	}
	// Pivots beyond the corpus size must clamp, not crash.
	if _, err := New(testCorpus, nil, m, Config{Algorithm: "laesa", Pivots: 10000}); err != nil {
		t.Errorf("oversized pivots: %v", err)
	}
}

func TestDistanceAndBatchAgree(t *testing.T) {
	for _, alg := range shard.Kinds {
		e := newTestEngine(t, alg)
		pairs := []Pair{{A: "casa", B: "cosa"}, {A: "gato", B: "gatos"}, {A: "queso", B: "queso"}, {A: "", B: "abc"}}
		batch, st, _ := e.BatchDistanceCtx(context.Background(), pairs)
		if st.Computations != len(pairs) {
			t.Errorf("%s: batch computations = %d, want %d", alg, st.Computations, len(pairs))
		}
		for i, p := range pairs {
			single, c := e.Distance(p.A, p.B)
			if c.Computations != 1 {
				t.Errorf("%s: single computations = %d", alg, c.Computations)
			}
			if single != batch[i] {
				t.Errorf("%s: pair %d: batch %v != single %v", alg, i, batch[i], single)
			}
		}
		if d, _ := e.Distance("queso", "queso"); d != 0 {
			t.Errorf("%s: self-distance = %v", alg, d)
		}
	}
}

func TestKNearestAcrossAlgorithms(t *testing.T) {
	for _, alg := range shard.Kinds {
		e := newTestEngine(t, alg)
		ns, st, err := e.KNearestCtx(context.Background(), "cas", 3)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(ns) != 3 {
			t.Fatalf("%s: %d neighbours", alg, len(ns))
		}
		for i := 1; i < len(ns); i++ {
			if ns[i].Distance < ns[i-1].Distance {
				t.Errorf("%s: results not sorted: %+v", alg, ns)
			}
		}
		if st.Computations <= 0 || st.Computations > len(testCorpus) {
			t.Errorf("%s: computations = %d", alg, st.Computations)
		}
		// "casa" and "caso" tie under dC,h; any tied element may rank first.
		if ns[0].Value != "casa" && ns[0].Value != "caso" {
			t.Errorf("%s: nearest to \"cas\" = %q", alg, ns[0].Value)
		}
		if _, _, err := e.KNearestCtx(context.Background(), "cas", 0); err == nil {
			t.Errorf("%s: k=0 should fail", alg)
		}
	}
}

func TestBatchKNearestMatchesSingles(t *testing.T) {
	e := newTestEngine(t, "laesa")
	queries := []string{"cas", "gat", "ques", "masa"}
	batch, st, err := e.BatchKNearestCtx(context.Background(), queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d batch results", len(batch))
	}
	total := 0
	for i, q := range queries {
		single, c, err := e.KNearestCtx(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		total += c.Computations
		for j := range single {
			if math.Abs(single[j].Distance-batch[i][j].Distance) > 1e-12 {
				t.Errorf("query %q rank %d: batch %v != single %v", q, j, batch[i][j], single[j])
			}
		}
	}
	if st.Computations != total {
		t.Errorf("batch computations = %d, want sum of singles %d", st.Computations, total)
	}
	if _, _, err := e.BatchKNearestCtx(context.Background(), queries, -1); err == nil {
		t.Error("negative k should fail")
	}
}

func TestClassify(t *testing.T) {
	for _, alg := range shard.Kinds {
		e := newTestEngine(t, alg)
		p, st, err := Classify(context.Background(), e, "gatito")
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if p.Label != 3 || !strings.HasPrefix(p.Neighbor.Value, "gato") {
			t.Errorf("%s: prediction = %+v", alg, p)
		}
		if st.Computations <= 0 {
			t.Errorf("%s: computations = %d", alg, st.Computations)
		}
		ps, total, err := e.BatchClassifyCtx(context.Background(), []string{"gatito", "cesa"})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(ps) != 2 || ps[0].Label != 3 || ps[1].Label != 0 {
			t.Errorf("%s: batch predictions = %+v", alg, ps)
		}
		if total.Computations <= 0 {
			t.Errorf("%s: batch computations = %d", alg, total.Computations)
		}
	}
}

func TestClassifyUnlabelled(t *testing.T) {
	e, err := New(testCorpus, nil, metric.Levenshtein(), Config{Algorithm: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Classify(context.Background(), e, "gato"); err == nil {
		t.Error("classify on unlabelled corpus should fail")
	}
	if _, _, err := e.BatchClassifyCtx(context.Background(), []string{"gato"}); err == nil {
		t.Error("batch classify on unlabelled corpus should fail")
	}
}

func TestInfoAndCacheCounters(t *testing.T) {
	e := newTestEngine(t, "aesa")
	e.Distance("hola", "adios") //ced:stagecount-ok: a direct evaluation rejects nothing.
	e.Distance("hola", "adios") //ced:stagecount-ok: same strings, two cache hits.
	info := e.Info()
	if info.Algorithm != "aesa" || info.Metric != "dC,h" || info.CorpusSize != len(testCorpus) {
		t.Errorf("info = %+v", info)
	}
	if !info.Labelled {
		t.Error("labelled corpus reported unlabelled")
	}
	if info.Requests != 2 {
		t.Errorf("requests = %d", info.Requests)
	}
	if info.Cache.Hits != 2 || info.Cache.Misses != 2 {
		t.Errorf("cache stats = %+v", info.Cache)
	}
}

func TestWorkerPoolAgreesAtEveryWidth(t *testing.T) {
	// The striped fan-out must produce identical results whatever the
	// worker count, including widths above the batch size.
	pairs := make([]Pair, 37)
	for i := range pairs {
		pairs[i] = Pair{A: testCorpus[i%len(testCorpus)], B: testCorpus[(i*3+1)%len(testCorpus)]}
	}
	var want []float64
	for _, workers := range []int{1, 2, 3, 64} {
		e, err := New(testCorpus, nil, metric.ContextualHeuristic(),
			Config{Algorithm: "linear", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, _, _ := e.BatchDistanceCtx(context.Background(), pairs)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d pair %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBatchDistanceSessionsMatchExact drives the per-worker-session batch
// path with the exact contextual metric (which mints workspace sessions)
// at several pool widths and checks every value against a direct
// evaluation of the shared metric.
func TestBatchDistanceSessionsMatchExact(t *testing.T) {
	m := metric.Contextual()
	pairs := make([]Pair, 40)
	for i := range pairs {
		pairs[i] = Pair{A: testCorpus[i%len(testCorpus)], B: testCorpus[(i*7+3)%len(testCorpus)]}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		e, err := New(testCorpus, nil, m, Config{Algorithm: "linear", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, st, _ := e.BatchDistanceCtx(context.Background(), pairs)
		if st.Computations != len(pairs) {
			t.Fatalf("workers=%d: comps = %d, want %d", workers, st.Computations, len(pairs))
		}
		for i, p := range pairs {
			want := m.Distance([]rune(p.A), []rune(p.B))
			if got[i] != want {
				t.Fatalf("workers=%d pair %d (%q,%q): %v != %v", workers, i, p.A, p.B, got[i], want)
			}
		}
	}
}

// BuildWorkers only changes how fast the index is built, never what it
// answers: engines built at different widths must agree query for query,
// computation count included.
func TestBuildWorkersAgreeAtEveryWidth(t *testing.T) {
	for _, algorithm := range []string{"laesa", "aesa", "bktree"} {
		m := metric.Metric(metric.Contextual())
		if algorithm == "bktree" {
			m = metric.Levenshtein()
		}
		var ref *Engine
		for _, bw := range []int{1, 4} {
			e, err := New(testCorpus, testLabels, m, Config{Algorithm: algorithm, Pivots: 3, BuildWorkers: bw})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = e
				continue
			}
			for _, q := range []string{"cas", "gatito", "queso", "xyz"} {
				want, wantStats, err := ref.KNearestCtx(context.Background(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				got, gotStats, err := e.KNearestCtx(context.Background(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				if gotStats.Computations != wantStats.Computations {
					t.Fatalf("%s build-workers=%d query %q: comps %d vs %d",
						algorithm, bw, q, gotStats.Computations, wantStats.Computations)
				}
				if len(got) != len(want) {
					t.Fatalf("%s build-workers=%d query %q: %d neighbours vs %d", algorithm, bw, q, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s build-workers=%d query %q: neighbour %d = %+v, want %+v",
							algorithm, bw, q, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStageRejectionCounters drives k-NN queries through the staged exact
// contextual metric and checks that the ladder rejections surface both in
// the per-request stats and in the engine's lifetime Info counters.
func TestStageRejectionCounters(t *testing.T) {
	corpus := make([]string, 0, 64)
	for i := 0; i < 8; i++ {
		for _, w := range testCorpus {
			corpus = append(corpus, w+strings.Repeat("x", i))
		}
	}
	e, err := New(corpus, nil, metric.Contextual(), Config{Algorithm: "laesa", Pivots: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for _, q := range []string{"cas", "gatito", "quesadilla", "zzzzzzzzzzzz"} {
		_, st, err := e.KNearestCtx(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if total := st.Rejections.Total(); total > int64(st.Computations) {
			t.Fatalf("query %q: %d rejections > %d computations", q, total, st.Computations)
		}
		sum.Add(st)
	}
	want := stageRejections(sum.Rejections)
	if want == (StageRejections{}) {
		t.Fatal("expected staged rejections across the query set")
	}
	if got := e.Info().Rejections; got != want {
		t.Fatalf("Info rejections = %+v, want sum of per-request stats %+v", got, want)
	}
	// Direct distance evaluations have no cutoff and must not move the
	// counters.
	e.Distance("casa", "cosa") //ced:stagecount-ok: the call under test rejects nothing.
	if got := e.Info().Rejections; got != want {
		t.Fatalf("Distance moved rejection counters: %+v vs %+v", got, want)
	}
}
