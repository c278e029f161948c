package search

import (
	"math"
	"math/rand"
	"testing"

	"ced/internal/metric"
)

func TestTrieSearchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	corpus := randomCorpus(rng, 200, 10, alpha)
	queries := randomCorpus(rng, 50, 10, alpha)
	lin := NewLinear(corpus, metric.Levenshtein())
	tr := NewTrie(corpus)
	if tr.Name() != "trie" || tr.Size() != 200 {
		t.Error("trie metadata wrong")
	}
	for _, q := range queries {
		want := lin.Search(q)
		got := tr.Search(q)
		if math.Abs(got.Distance-want.Distance) > 1e-12 {
			t.Fatalf("trie(%q) = %v, want %v", string(q), got.Distance, want.Distance)
		}
	}
}

func TestTrieRadiusMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	corpus := randomCorpus(rng, 150, 8, alpha)
	lin := NewLinear(corpus, metric.Levenshtein())
	tr := NewTrie(corpus)
	for _, q := range randomCorpus(rng, 25, 8, alpha) {
		for _, r := range []float64{0, 1, 2} {
			// The trie returns one hit per *unique* string (duplicates share
			// a node), so compare unique-string sets, not raw hit counts.
			want, _ := radius(lin, q, r)
			wantSet := map[string]float64{}
			for _, h := range want {
				wantSet[string(corpus[h.Index])] = h.Distance
			}
			got, nodes := radius(tr, q, r)
			gotSet := map[string]float64{}
			for _, h := range got {
				gotSet[string(corpus[h.Index])] = h.Distance
			}
			if len(gotSet) != len(wantSet) {
				t.Fatalf("radius %v: %d unique hits, want %d", r, len(gotSet), len(wantSet))
			}
			for s, d := range wantSet {
				if gd, ok := gotSet[s]; !ok || gd != d {
					t.Fatalf("radius %v: %q missing or wrong distance (%v vs %v)", r, s, gd, d)
				}
			}
			if nodes <= 0 {
				t.Fatal("no nodes visited")
			}
		}
	}
}

func TestTrieDuplicatesAndEmpty(t *testing.T) {
	empty := NewTrie(nil)
	if r := empty.Search([]rune("a")); r.Index != -1 {
		t.Error("empty trie should return -1")
	}
	if hits, _ := radius(empty, []rune("a"), 2); hits != nil {
		t.Error("empty trie radius should be nil")
	}
	corpus := [][]rune{[]rune("dup"), []rune("dup"), []rune("other")}
	tr := NewTrie(corpus)
	if tr.Size() != 3 {
		t.Errorf("size = %d", tr.Size())
	}
	r := tr.Search([]rune("dup"))
	if r.Distance != 0 || r.Index != 0 {
		t.Errorf("duplicate search = %+v (should keep first index)", r)
	}
}

func TestTrieVisitsFewerNodesThanCorpusScan(t *testing.T) {
	// On prefix-sharing dictionaries, a tight query should visit far fewer
	// nodes than there are corpus strings times average length.
	corpus := make([][]rune, 0, 500)
	rng := rand.New(rand.NewSource(112))
	for i := 0; i < 500; i++ {
		corpus = append(corpus, randomCorpus(rng, 1, 12, []rune("abcdefgh"))[0])
	}
	tr := NewTrie(corpus)
	q := corpus[42]
	_, nodes := radius(tr, q, 1)
	total := 0
	for _, s := range corpus {
		total += len(s)
	}
	if nodes >= total {
		t.Errorf("trie visited %d nodes, not better than %d total symbols", nodes, total)
	}
}

func TestTrieEmptyQueryString(t *testing.T) {
	corpus := [][]rune{[]rune("a"), []rune("bb"), []rune("ccc")}
	tr := NewTrie(corpus)
	r := tr.Search(nil)
	if r.Distance != 1 { // nearest is "a" at distance 1
		t.Errorf("empty query distance = %v, want 1", r.Distance)
	}
}
