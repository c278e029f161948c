package search

import (
	"fmt"
	"testing"

	"ced/internal/dataset"
	"ced/internal/metric"
)

// Index-construction benchmarks over a 2,048-string corpus under the exact
// dC — the cold-start cost of cedserve and the dominant preprocessing cost
// of the paper's experiments (the LAESA pivot matrix). The workers
// sub-benchmarks expose the parallel build layer: on an N-core machine the
// wall clock should shrink close to linearly until workers reaches N, with
// the built index bit-identical throughout (see build_parallel_test.go).
// BENCH.md gives the command.

const buildBenchCorpusSize = 2048

var buildBenchWorkers = []int{1, 2, 4, 8}

func buildBenchCorpus() [][]rune {
	return dataset.Spanish(buildBenchCorpusSize, 1).Runes()
}

func BenchmarkLAESABuild2k(b *testing.B) {
	corpus := buildBenchCorpus()
	m := metric.Contextual()
	for _, w := range buildBenchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewLAESAWorkers(corpus, m, 16, MaxSum, 1, w)
			}
		})
	}
}

func BenchmarkBKTreeBuild2k(b *testing.B) {
	corpus := buildBenchCorpus()
	m := metric.Levenshtein() // the BK-tree's integer-valued metric
	for _, w := range buildBenchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewBKTreeWorkers(corpus, m, w)
			}
		})
	}
}
