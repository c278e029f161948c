package search

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"ced/internal/metric"
)

// ErrNoCodec reports an index kind without a snapshot form: the linear
// index has nothing worth persisting, aesa's quadratic matrix is
// deliberately not serialised, and the ablation-only VP-tree and trie are
// never persisted. Callers that persist a corpus alongside the index
// rebuild those kinds from it.
var ErrNoCodec = errors.New("search: index kind has no snapshot form")

// Save writes ix as a gob snapshot (corpus plus every preprocessing
// distance) so Load can restore it without recomputing any distance. LAESA
// and BK-tree indexes have a snapshot form; every other kind fails with
// ErrNoCodec.
func Save(w io.Writer, ix Index) error {
	switch ix := ix.(type) {
	case *LAESA:
		return ix.save(w)
	case *BKTree:
		return ix.save(w)
	default:
		return fmt.Errorf("%w: %q", ErrNoCodec, ix.Name())
	}
}

// Load restores an index of the given kind written by Save, attaching m as
// the query metric. m must be the metric the index was built with (checked
// by name): preprocessing distances computed under one distance are
// unsound pruning bounds under another. A kind without a snapshot form
// fails with ErrNoCodec.
func Load(kind string, r io.Reader, m metric.Metric) (Index, error) {
	switch kind {
	case "laesa":
		return loadLAESA(r, m)
	case "bktree":
		return loadBKTree(r, m)
	default:
		return nil, fmt.Errorf("%w: %q", ErrNoCodec, kind)
	}
}

// laesaSnapshot is the gob wire format of a LAESA index. The metric itself
// is not serialised (functions cannot be); the loader re-attaches one and
// the snapshot records the metric's name so mismatches are caught.
type laesaSnapshot struct {
	MetricName string
	Corpus     []string
	Pivots     []int
	Rows       [][]float64
	Preprocess int
}

// save writes the index (corpus, pivots and the pivot distance matrix — the
// expensive part of preprocessing) to w.
func (s *LAESA) save(w io.Writer) error {
	snap := laesaSnapshot{
		MetricName: s.m.Name(),
		Corpus:     runesToStrings(s.corpus),
		Pivots:     s.pivots,
		Rows:       s.rows,
		Preprocess: s.PreprocessComputations,
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("search: saving LAESA index: %w", err)
	}
	return nil
}

// loadLAESA restores a LAESA index written by save.
func loadLAESA(r io.Reader, m metric.Metric) (Index, error) {
	var snap laesaSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("search: loading LAESA index: %w", err)
	}
	if snap.MetricName != m.Name() {
		return nil, fmt.Errorf("search: index was built with metric %q, loader supplied %q",
			snap.MetricName, m.Name())
	}
	if len(snap.Pivots) != len(snap.Rows) {
		return nil, fmt.Errorf("search: corrupt index: %d pivots but %d rows", len(snap.Pivots), len(snap.Rows))
	}
	corpus := stringsToRunes(snap.Corpus)
	listed := make(map[int]bool, len(snap.Pivots))
	for rIdx, p := range snap.Pivots {
		if p < 0 || p >= len(corpus) {
			return nil, fmt.Errorf("search: corrupt index: pivot %d out of corpus range", p)
		}
		if listed[p] {
			return nil, fmt.Errorf("search: corrupt index: pivot %d listed twice", p)
		}
		listed[p] = true
		if len(snap.Rows[rIdx]) != len(corpus) {
			return nil, fmt.Errorf("search: corrupt index: row %d has %d entries for corpus of %d",
				rIdx, len(snap.Rows[rIdx]), len(corpus))
		}
	}
	return newLAESA(corpus, m, snap.Pivots, snap.Rows, snap.Preprocess), nil
}

// bkFlatNode is one BK-tree node in the flattened wire form: Edges[i] is
// the integer edge label leading to the child at position Children[i],
// labels ascending. MaxEdge repeats the largest label: the loader derives
// it from Edges, and it stays so the wire form keeps its shape.
type bkFlatNode struct {
	Index    int
	MaxEdge  int
	Edges    []int
	Children []int
}

// bktreeSnapshot is the gob wire format of a BK-tree.
type bktreeSnapshot struct {
	MetricName string
	Corpus     []string
	Nodes      []bkFlatNode
}

// save writes the index (corpus and tree — every edge label is a
// preprocessing distance) to w.
func (t *BKTree) save(w io.Writer) error {
	snap := bktreeSnapshot{
		MetricName: t.eval.m.Name(),
		Corpus:     runesToStrings(t.corpus),
	}
	var flatten func(n *bkNode) int
	flatten = func(n *bkNode) int {
		pos := len(snap.Nodes)
		snap.Nodes = append(snap.Nodes, bkFlatNode{Index: n.index, MaxEdge: n.maxEdge()})
		for _, e := range n.children {
			child := flatten(e.child)
			snap.Nodes[pos].Edges = append(snap.Nodes[pos].Edges, e.label)
			snap.Nodes[pos].Children = append(snap.Nodes[pos].Children, child)
		}
		return pos
	}
	if t.root != nil {
		flatten(t.root)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("search: saving BK-tree index: %w", err)
	}
	return nil
}

// loadBKTree restores a BK-tree written by save.
func loadBKTree(r io.Reader, m metric.Metric) (Index, error) {
	var snap bktreeSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("search: loading BK-tree index: %w", err)
	}
	if snap.MetricName != m.Name() {
		return nil, fmt.Errorf("search: index was built with metric %q, loader supplied %q",
			snap.MetricName, m.Name())
	}
	if len(snap.Nodes) != len(snap.Corpus) {
		return nil, fmt.Errorf("search: corrupt index: %d nodes for corpus of %d", len(snap.Nodes), len(snap.Corpus))
	}
	corpus := stringsToRunes(snap.Corpus)
	nodes := make([]bkNode, len(snap.Nodes))
	for i, f := range snap.Nodes {
		if f.Index < 0 || f.Index >= len(corpus) {
			return nil, fmt.Errorf("search: corrupt index: node %d element %d out of corpus range", i, f.Index)
		}
		if len(f.Edges) != len(f.Children) {
			return nil, fmt.Errorf("search: corrupt index: node %d has %d edges but %d children", i, len(f.Edges), len(f.Children))
		}
		nodes[i] = bkNode{index: f.Index, children: make([]bkEdge, len(f.Edges))}
		for j, e := range f.Edges {
			child := f.Children[j]
			if child <= i || child >= len(nodes) {
				return nil, fmt.Errorf("search: corrupt index: node %d child %d out of preorder range", i, child)
			}
			if j > 0 && e <= f.Edges[j-1] {
				return nil, fmt.Errorf("search: corrupt index: node %d edge labels not ascending", i)
			}
			nodes[i].children[j] = bkEdge{label: e, child: &nodes[child]}
		}
	}
	t := &BKTree{corpus: corpus, eval: newEvaluator(m), size: len(corpus)}
	if len(nodes) > 0 {
		t.root = &nodes[0]
	}
	return t, nil
}

// runesToStrings and stringsToRunes convert between the index's rune view
// and the snapshot's string wire form.
func runesToStrings(rs [][]rune) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = string(r)
	}
	return out
}

func stringsToRunes(ss []string) [][]rune {
	out := make([][]rune, len(ss))
	for i, s := range ss {
		out[i] = []rune(s)
	}
	return out
}
