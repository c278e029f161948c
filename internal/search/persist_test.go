package search

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ced/internal/metric"
)

func TestLAESASaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	corpus := randomCorpus(rng, 100, 9, alpha)
	queries := randomCorpus(rng, 25, 9, alpha)
	m := metric.ContextualHeuristic()
	orig := NewLAESA(corpus, m, 12, MaxSum, 9)

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	ix, err := Load("laesa", &buf, metric.ContextualHeuristic())
	if err != nil {
		t.Fatal(err)
	}
	loaded := ix.(*LAESA)
	if loaded.Size() != orig.Size() || loaded.NumPivots() != orig.NumPivots() {
		t.Fatalf("loaded shape %d/%d, want %d/%d",
			loaded.Size(), loaded.NumPivots(), orig.Size(), orig.NumPivots())
	}
	if loaded.PreprocessComputations != orig.PreprocessComputations {
		t.Error("preprocess count not preserved")
	}
	for _, q := range queries {
		a, b := orig.Search(q), loaded.Search(q)
		if a.Index != b.Index || a.Distance != b.Distance || a.Computations != b.Computations {
			t.Fatalf("loaded index differs on %q: %+v vs %+v", string(q), a, b)
		}
	}
}

func TestBKTreeSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	corpus := randomCorpus(rng, 120, 9, alpha)
	queries := randomCorpus(rng, 25, 9, alpha)
	m := metric.Levenshtein()
	orig := NewBKTree(corpus, m)

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	loaded, err := Load("bktree", bytes.NewReader(saved), metric.Levenshtein())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != orig.Size() {
		t.Fatalf("loaded size %d, want %d", loaded.Size(), orig.Size())
	}
	for _, q := range queries {
		// The loaded tree keeps every edge in label order, so it walks
		// exactly like the original: same answers, same work.
		if a, b := orig.Search(q), loaded.Search(q); a != b {
			t.Fatalf("loaded tree differs on %q: %+v vs %+v", string(q), a, b)
		}
		if a, b := orig.KNearest(q, 3), loaded.KNearest(q, 3); !slices.Equal(a, b) {
			t.Fatalf("loaded tree k-NN differs on %q: %+v vs %+v", string(q), a, b)
		}
	}
	if _, err := Load("bktree", bytes.NewReader(saved), metric.Contextual()); err == nil {
		t.Error("metric mismatch should fail")
	}

	// A node whose edge labels do not ascend (here, a repeated label) is
	// corrupt: the walk relies on the order.
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(bktreeSnapshot{
		MetricName: "dE",
		Corpus:     []string{"a", "b", "c"},
		Nodes:      []bkFlatNode{{Index: 0, MaxEdge: 1, Edges: []int{1, 1}, Children: []int{1, 2}}, {Index: 1}, {Index: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("bktree", &bad, metric.Levenshtein()); err == nil {
		t.Error("repeated edge label should fail")
	}
}

func TestLoadLAESAMetricMismatch(t *testing.T) {
	corpus := [][]rune{[]rune("ab"), []rune("ba")}
	orig := NewLAESA(corpus, metric.Levenshtein(), 1, MaxSum, 1)
	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("laesa", &buf, metric.YujianBo()); err == nil {
		t.Error("metric mismatch should fail")
	} else if !strings.Contains(err.Error(), "dE") {
		t.Errorf("error should name the original metric: %v", err)
	}
}

func TestLoadLAESACorruptData(t *testing.T) {
	if _, err := Load("laesa", bytes.NewBufferString("not gob"), metric.Levenshtein()); err == nil {
		t.Error("garbage input should fail")
	}

	// A pivot listed twice would be evaluated and offered twice by every
	// query; refuse it at load.
	var dup bytes.Buffer
	if err := gob.NewEncoder(&dup).Encode(laesaSnapshot{
		MetricName: "dE",
		Corpus:     []string{"ab", "ba", "abc"},
		Pivots:     []int{1, 1},
		Rows:       [][]float64{{2, 0, 2}, {2, 0, 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("laesa", &dup, metric.Levenshtein()); err == nil || !strings.Contains(err.Error(), "pivot 1 listed twice") {
		t.Errorf("duplicate pivot: got %v, want a listed-twice error", err)
	}
}
