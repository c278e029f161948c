package search

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"ced/internal/metric"
)

// laesaWork is what one request costs LAESA over a fixture's queries: the
// summed Stats, the number of hits and an FNV-1a hash of the hits' corpus
// indices in answer order.
type laesaWork struct {
	Stats
	hits    int
	hitHash uint64
}

func measureLAESAWork(t *testing.T, la *LAESA, queries [][]rune, req Request) laesaWork {
	t.Helper()
	var w laesaWork
	h := fnv.New64a()
	var buf [8]byte
	for _, q := range queries {
		ans, err := la.Query(context.Background(), q, req)
		if err != nil {
			t.Fatal(err)
		}
		w.Add(ans.Stats)
		w.hits += len(ans.Hits)
		for _, hit := range ans.Hits {
			binary.LittleEndian.PutUint64(buf[:], uint64(hit.Index))
			h.Write(buf[:])
		}
	}
	w.hitHash = h.Sum64()
	return w
}

var (
	laesaSpanishDEOnce sync.Once
	laesaSpanishDE     *LAESA
)

// spanishLAESADE is spanishLAESA under dE: the same words, pivot count,
// strategy and seed.
func spanishLAESADE() *LAESA {
	laesaSpanishDEOnce.Do(func() {
		laesaSpanishDE = NewLAESA(spanishFixture().corpus, metric.Levenshtein(), 32, MaxSum, 19)
	})
	return laesaSpanishDE
}

// TestLAESAWorkPinned pins LAESA's work on the query benchmarks' fixtures
// to committed values: computations, rejections by rung and a fingerprint
// of the hits, summed over every query, for k-NN at k = 1, 3 and 10 and
// for a radius query. A change to pivot selection, bound tightening,
// elimination or the visiting order shows here as a moved count even when
// the answers stay exact (TestIndexesMatchLinearExactly checks those).
// When such a change is meant, update the row and record the old and new
// values with the change.
func TestLAESAWorkPinned(t *testing.T) {
	inf := math.Inf(1)
	fixtures := []struct {
		name    string
		index   func() *LAESA
		fixture func() queryFixture
		radius  float64
	}{
		{"spanish/dC", spanishLAESA, spanishFixture, spanishRadius},
		{"spanish/dE", spanishLAESADE, spanishFixture, 2},
		{"contours/dC", contourLAESA, contourFixture, contourRadius},
	}
	want := map[string]laesaWork{
		"spanish/dC/knn1":        {Stats{18967, metric.StageCounts{1994, 16405, 89, 12}}, 64, 0x71afb7f8e4154592},
		"spanish/dC/knn3":        {Stats{86244, metric.StageCounts{12353, 71793, 434, 36}}, 192, 0x616a017d13647a2a},
		"spanish/dC/knn10":       {Stats{95050, metric.StageCounts{10848, 78105, 1574, 118}}, 640, 0xf0aab96e9883c727},
		"spanish/dC/radius0.3":   {Stats{66335, metric.StageCounts{18316, 47961, 0, 0}}, 57, 0xd50bd9029a70d127},
		"spanish/dE/knn1":        {Stats{10118, metric.StageCounts{14, 8446, 0, 0}}, 64, 0x43fd29ca8a309103},
		"spanish/dE/knn3":        {Stats{79980, metric.StageCounts{13, 76933, 0, 0}}, 192, 0xb34689f76b122d21},
		"spanish/dE/knn10":       {Stats{88919, metric.StageCounts{28, 82419, 0, 0}}, 640, 0xcc607d9328057528},
		"spanish/dE/radius2":     {Stats{34825, metric.StageCounts{14148, 20229, 0, 0}}, 118, 0x100e0d1fb244a6eb},
		"contours/dC/knn1":       {Stats{299, metric.StageCounts{43, 175, 0, 0}}, 24, 0xfa65e0d2f2ef350f},
		"contours/dC/knn3":       {Stats{1011, metric.StageCounts{56, 733, 7, 0}}, 72, 0xa7d3b25ab411f2db},
		"contours/dC/knn10":      {Stats{1686, metric.StageCounts{58, 1038, 4, 1}}, 240, 0x95a6ca3143757d73},
		"contours/dC/radius0.08": {Stats{417, metric.StageCounts{129, 267, 0, 0}}, 21, 0x5217d28cb950722a},
	}
	for _, f := range fixtures {
		la, queries := f.index(), f.fixture().queries
		for _, req := range []Request{KNN(1, inf), KNN(3, inf), KNN(10, inf), Within(f.radius)} {
			name := fmt.Sprintf("%s/knn%d", f.name, req.K())
			if req.IsRadius() {
				name = fmt.Sprintf("%s/radius%g", f.name, req.Bound())
			}
			got := measureLAESAWork(t, la, queries, req)
			w, ok := want[name]
			if !ok || got != w {
				t.Errorf("%s: got %#v, want %#v", name, got, w)
			}
		}
	}
}
