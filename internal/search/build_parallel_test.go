package search

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"ced/internal/metric"
)

// The parallel construction paths promise bit-identical indexes for any
// worker count: same pivots, same rows, same computation counts, same tree
// shapes. These tests pin that promise for workers ∈ {1, 4, GOMAXPROCS}
// under both a session-capable metric (dC, exercising private workspaces)
// and a plain one (dE, exercising the shared-metric path). The whole file
// runs under -race in CI, so the concurrent builds are also exercised for
// data races.

func buildWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

func buildTestMetrics() []metric.Metric {
	return []metric.Metric{metric.Contextual(), metric.Levenshtein()}
}

func TestSelectPivotsParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	corpus := randomCorpus(rng, 150, 9, alpha)
	for _, m := range buildTestMetrics() {
		for _, strat := range []PivotStrategy{MaxSum, MaxMin, Random} {
			wantPivots, wantRows, wantComps := selectPivots(corpus, m, 10, strat, 33, 1)
			for _, workers := range buildWorkerCounts()[1:] {
				pivots, rows, comps := selectPivots(corpus, m, 10, strat, 33, workers)
				if !reflect.DeepEqual(pivots, wantPivots) {
					t.Fatalf("%s/%v workers=%d: pivots %v, serial %v", m.Name(), strat, workers, pivots, wantPivots)
				}
				if comps != wantComps {
					t.Fatalf("%s/%v workers=%d: computations %d, serial %d", m.Name(), strat, workers, comps, wantComps)
				}
				for r := range rows {
					for i := range rows[r] {
						if rows[r][i] != wantRows[r][i] { // exact float equality: bit-identical
							t.Fatalf("%s/%v workers=%d: row %d[%d] = %v, serial %v",
								m.Name(), strat, workers, r, i, rows[r][i], wantRows[r][i])
						}
					}
				}
			}
		}
	}
}

func TestNewLAESAWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	corpus := randomCorpus(rng, 120, 8, alpha)
	for _, m := range buildTestMetrics() {
		serial := NewLAESAWorkers(corpus, m, 12, MaxSum, 5, 1)
		for _, workers := range buildWorkerCounts()[1:] {
			parallel := NewLAESAWorkers(corpus, m, 12, MaxSum, 5, workers)
			if !reflect.DeepEqual(parallel.pivots, serial.pivots) {
				t.Fatalf("%s workers=%d: pivots differ", m.Name(), workers)
			}
			if !reflect.DeepEqual(parallel.rows, serial.rows) {
				t.Fatalf("%s workers=%d: rows differ", m.Name(), workers)
			}
			if !reflect.DeepEqual(parallel.rowOf, serial.rowOf) {
				t.Fatalf("%s workers=%d: rowOf differs", m.Name(), workers)
			}
			if parallel.PreprocessComputations != serial.PreprocessComputations {
				t.Fatalf("%s workers=%d: PreprocessComputations %d, serial %d",
					m.Name(), workers, parallel.PreprocessComputations, serial.PreprocessComputations)
			}
		}
	}
}

// sameBKTree reports whether two BK-trees are identical: same node indices,
// same edge labels in the same (ascending) order, same children.
func sameBKTree(a, b *bkNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.index != b.index || len(a.children) != len(b.children) {
		return false
	}
	for i, e := range a.children {
		if e.label != b.children[i].label || !sameBKTree(e.child, b.children[i].child) {
			return false
		}
		if i > 0 && e.label <= a.children[i-1].label {
			return false
		}
	}
	return true
}

// bkInsertReference is the pre-batching serial insertion algorithm, written
// as plainly as possible (a linear scan of the children, append and sort),
// as the oracle the bulk build must reproduce node for node.
func bkInsertReference(corpus [][]rune, m metric.Metric) *bkNode {
	var root *bkNode
	for i := range corpus {
		if root == nil {
			root = &bkNode{index: i}
			continue
		}
		node := root
	descend:
		for {
			d := int(m.Distance(corpus[i], corpus[node.index]))
			for _, e := range node.children {
				if e.label == d {
					node = e.child
					continue descend
				}
			}
			node.children = append(node.children, bkEdge{label: d, child: &bkNode{index: i}})
			slices.SortFunc(node.children, func(a, b bkEdge) int { return a.label - b.label })
			break
		}
	}
	return root
}

func TestNewBKTreeWorkersMatchesSerialInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	corpus := randomCorpus(rng, 400, 8, alpha)
	m := metric.Levenshtein()
	want := bkInsertReference(corpus, m)
	for _, workers := range buildWorkerCounts() {
		tree := NewBKTreeWorkers(corpus, m, workers)
		if tree.Size() != len(corpus) {
			t.Fatalf("workers=%d: size %d, want %d", workers, tree.Size(), len(corpus))
		}
		if !sameBKTree(tree.root, want) {
			t.Fatalf("workers=%d: tree differs from serial insertion", workers)
		}
	}
}

// A parallel-built index must behave exactly like a serial one end to end:
// same neighbours, same distances, same per-query computation counts.
func TestParallelBuiltIndexesAnswerIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	corpus := randomCorpus(rng, 200, 8, alpha)
	queries := randomCorpus(rng, 25, 8, alpha)
	m := metric.Contextual()
	serial := NewLAESAWorkers(corpus, m, 12, MaxSum, 9, 1)
	for _, workers := range buildWorkerCounts()[1:] {
		parallel := NewLAESAWorkers(corpus, m, 12, MaxSum, 9, workers)
		for _, q := range queries {
			if a, b := serial.Search(q), parallel.Search(q); a != b {
				t.Fatalf("laesa workers=%d query %q: serial %+v, parallel %+v",
					workers, string(q), a, b)
			}
		}
	}
}
