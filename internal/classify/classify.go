// Package classify implements the nearest-neighbour classification protocol
// of the paper's §4.4 (Table 2): a test sample is assigned the label of its
// nearest neighbour in the labelled training set; mismatches with the true
// label count as errors.
package classify

import (
	"fmt"

	"ced/internal/search"
)

// Outcome aggregates one classification run.
type Outcome struct {
	// Tested is the number of classified queries; Errors the number whose
	// predicted label differed from the true one.
	Tested, Errors int
	// TotalComputations is the summed distance evaluations across queries.
	TotalComputations int
	// Confusion[t][p] counts samples of true class t predicted as class p.
	Confusion [][]int
}

// ErrorRate returns the error percentage (0–100), the unit of the paper's
// Table 2.
func (o Outcome) ErrorRate() float64 {
	if o.Tested == 0 {
		return 0
	}
	return 100 * float64(o.Errors) / float64(o.Tested)
}

// AvgComputations returns the mean distance computations per query.
func (o Outcome) AvgComputations() float64 {
	if o.Tested == 0 {
		return 0
	}
	return float64(o.TotalComputations) / float64(o.Tested)
}

// Merge accumulates another outcome (e.g. from a repetition with a
// different prototype set) into o. Confusion matrices must have the same
// class count when both are present.
func (o *Outcome) Merge(other Outcome) {
	o.Tested += other.Tested
	o.Errors += other.Errors
	o.TotalComputations += other.TotalComputations
	if o.Confusion == nil {
		o.Confusion = other.Confusion
		return
	}
	for t := range other.Confusion {
		for p, c := range other.Confusion[t] {
			o.Confusion[t][p] += c
		}
	}
}

// Evaluate classifies every query with its nearest neighbour in the
// searcher's corpus and compares against the true labels.
//
// trainLabels[i] must be the label of the searcher's corpus element i; the
// number of classes is inferred from the largest label seen. It returns an
// error when the label slices are inconsistent with the data sizes.
func Evaluate(s search.Index, trainLabels []int, queries [][]rune, queryLabels []int) (Outcome, error) {
	if s.Size() != len(trainLabels) {
		return Outcome{}, fmt.Errorf("classify: %d corpus elements but %d training labels", s.Size(), len(trainLabels))
	}
	if len(queries) != len(queryLabels) {
		return Outcome{}, fmt.Errorf("classify: %d queries but %d query labels", len(queries), len(queryLabels))
	}
	classes := 0
	for _, l := range trainLabels {
		if l < 0 {
			return Outcome{}, fmt.Errorf("classify: negative training label %d", l)
		}
		if l+1 > classes {
			classes = l + 1
		}
	}
	for _, l := range queryLabels {
		if l < 0 {
			return Outcome{}, fmt.Errorf("classify: negative query label %d", l)
		}
		if l+1 > classes {
			classes = l + 1
		}
	}
	out := Outcome{Confusion: make([][]int, classes)}
	for t := range out.Confusion {
		out.Confusion[t] = make([]int, classes)
	}
	for i, q := range queries {
		res := s.Search(q)
		out.Tested++
		out.TotalComputations += res.Computations
		if res.Index < 0 {
			out.Errors++ // empty corpus: every query is an error
			continue
		}
		pred := trainLabels[res.Index]
		truth := queryLabels[i]
		out.Confusion[truth][pred]++
		if pred != truth {
			out.Errors++
		}
	}
	return out, nil
}
