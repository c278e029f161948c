package search

import (
	"bytes"
	"math/rand"
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

func TestVPTreeSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	corpus := randomCorpus(rng, 120, 9, alpha)
	queries := randomCorpus(rng, 25, 9, alpha)
	m := metric.Contextual()
	orig := NewVPTree(corpus, m, 9)

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	ix, err := Load("vptree", &buf, metric.Contextual())
	if err != nil {
		t.Fatal(err)
	}
	loaded := ix.(*VPTree)
	if loaded.Size() != orig.Size() {
		t.Fatalf("loaded size %d, want %d", loaded.Size(), orig.Size())
	}
	if loaded.PreprocessComputations != orig.PreprocessComputations {
		t.Error("preprocess count not preserved")
	}
	for _, q := range queries {
		a, b := orig.Search(q), loaded.Search(q)
		if a.Index != b.Index || a.Distance != b.Distance || a.Computations != b.Computations {
			t.Fatalf("loaded tree differs on %q: %+v vs %+v", string(q), a, b)
		}
		ka, kb := orig.KNearest(q, 3), loaded.KNearest(q, 3)
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("loaded tree k-NN differs on %q rank %d: %+v vs %+v", string(q), i, ka[i], kb[i])
			}
		}
	}
	if _, err := Load("vptree", bytes.NewBufferString("junk"), m); err == nil {
		t.Error("garbage input should fail")
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
		// BK-tree walk order (comps, and the winner among equal-distance
		// ties) depends on map iteration; compare the deterministic parts:
		// the 1-NN distance and the (distance, index)-ordered k-NN ranks.
		a, b := orig.Search(q), loaded.Search(q)
		if a.Distance != b.Distance {
			t.Fatalf("loaded tree differs on %q: %+v vs %+v", string(q), a, b)
		}
		ka, kb := orig.KNearest(q, 3), loaded.KNearest(q, 3)
		for i := range ka {
			if ka[i].Index != kb[i].Index || ka[i].Distance != kb[i].Distance {
				t.Fatalf("loaded tree k-NN differs on %q rank %d: %+v vs %+v", string(q), i, ka[i], kb[i])
			}
		}
	}
	if _, err := Load("bktree", bytes.NewReader(saved), metric.Contextual()); err == nil {
		t.Error("metric mismatch should fail")
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
}
