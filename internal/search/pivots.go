package search

import (
	"fmt"
	"math/rand"

	"ced/internal/bulk"
	"ced/internal/metric"
)

// PivotStrategy selects the base prototypes (pivots) of LAESA.
type PivotStrategy int

// Pivot selection strategies. MaxSum is the accumulated-distance criterion
// of the original LAESA paper (Micó, Oncina, Vidal 1994): each new pivot is
// the element maximising the sum of distances to the already-chosen pivots.
// MaxMin maximises the minimum distance instead (a classic alternative);
// Random picks uniformly (the ablation baseline).
const (
	MaxSum PivotStrategy = iota
	MaxMin
	Random
)

// String names the strategy.
func (s PivotStrategy) String() string {
	switch s {
	case MaxSum:
		return "max-sum"
	case MaxMin:
		return "max-min"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("PivotStrategy(%d)", int(s))
	}
}

// selectPivots chooses up to numPivots pivot indices among n corpus
// elements and returns them together with their distance rows: rowOf(p)
// is the distances from element p to every element (rowOf(p)[p] is never
// read).
// The rows double as the selection criterion accumulator, so selection
// costs nothing beyond the rows LAESA keeps anyway. The greedy selection
// is serial and depends only on the seed and the row values.
func selectPivots(n, numPivots int, strategy PivotStrategy, seed int64, rowOf func(p int) []float64) (pivots []int, rows [][]float64) {
	if numPivots > n {
		numPivots = n
	}
	if numPivots <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	pivots = make([]int, 0, numPivots)
	rows = make([][]float64, 0, numPivots)
	isPivot := make([]bool, n)

	// Selection score per candidate: accumulated sum (MaxSum) or running
	// minimum (MaxMin) of distances to chosen pivots.
	score := make([]float64, n)
	if strategy == MaxMin {
		for i := range score {
			score[i] = -1 // "no pivot seen yet" marker
		}
	}

	next := rng.Intn(n) // first pivot: random element (paper: arbitrary)
	for len(pivots) < numPivots {
		pivots = append(pivots, next)
		isPivot[next] = true
		row := rowOf(next)
		rows = append(rows, row)
		if len(pivots) == numPivots {
			break
		}
		switch strategy {
		case Random:
			for {
				cand := rng.Intn(n)
				if !isPivot[cand] {
					next = cand
					break
				}
			}
		case MaxMin:
			best := -1.0
			nextIdx := -1
			for i := 0; i < n; i++ {
				if isPivot[i] {
					continue
				}
				if score[i] < 0 || row[i] < score[i] {
					score[i] = row[i]
				}
				if score[i] > best {
					best = score[i]
					nextIdx = i
				}
			}
			next = nextIdx
		default: // MaxSum
			best := -1.0
			nextIdx := -1
			for i := 0; i < n; i++ {
				if isPivot[i] {
					continue
				}
				score[i] += row[i]
				if score[i] > best {
					best = score[i]
					nextIdx = i
				}
			}
			next = nextIdx
		}
		if next < 0 {
			break // fewer distinct elements than requested pivots
		}
	}
	return pivots, rows
}

// metricRows is selectPivots' row source under metric m. Each row — the
// dominant preprocessing cost Micó–Oncina–Vidal identify — is fanned over
// the corpus through the batch evaluator, one private metric session per
// striped worker (workers <= 0 uses all CPUs), and costs n−1 distance
// computations: the pivot itself is never evaluated (row[p] stays 0). The
// values are bit-identical to a serial run's, whatever the worker count.
func metricRows(corpus [][]rune, m metric.Metric, workers int) func(p int) []float64 {
	ev := bulk.New(m)
	n := len(corpus)
	return func(p int) []float64 {
		row := make([]float64, n)
		ev.FanBatch(corpus[p], p, workers, func(i int) []rune { return corpus[i] }, row[:p])
		ev.FanBatch(corpus[p], n-p-1, workers, func(i int) []rune { return corpus[p+1+i] }, row[p+1:])
		return row
	}
}
