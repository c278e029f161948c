package search

import (
	"context"
	"slices"
)

// Trie is a prefix-tree dictionary searcher for *edit-distance* queries
// (Levenshtein only): the classical structure for spelling correction.
// A nearest-neighbour or range query walks the trie once, maintaining one
// dynamic-programming row per node and abandoning subtrees whose row
// minimum already exceeds the bound. Shared prefixes share their DP rows,
// so on natural-language dictionaries a query costs far less than
// corpus-size distance computations.
//
// Unlike the metric searchers (LAESA, VP-tree), the trie exploits the
// *structure* of the edit distance rather than its metric axioms, so it
// cannot serve the contextual distance; it is included as the
// best-of-breed dE baseline for the dictionary workload.
type Trie struct {
	corpus   [][]rune
	root     *trieNode
	size     int
	distinct int // distinct strings; duplicates share one node (first index wins)
}

type trieNode struct {
	children map[rune]*trieNode
	// index is the corpus position of the string ending here, or -1.
	index int
}

// NewTrie builds a trie over corpus.
func NewTrie(corpus [][]rune) *Trie {
	t := &Trie{corpus: corpus, root: &trieNode{index: -1}}
	for i, s := range corpus {
		t.insert(i, s)
	}
	return t
}

func (t *Trie) insert(i int, s []rune) {
	t.size++
	node := t.root
	for _, r := range s {
		if node.children == nil {
			node.children = make(map[rune]*trieNode)
		}
		child, ok := node.children[r]
		if !ok {
			child = &trieNode{index: -1}
			node.children[r] = child
		}
		node = child
	}
	if node.index < 0 {
		node.index = i // duplicates keep the first index
		t.distinct++
	}
}

// Name returns "trie".
func (t *Trie) Name() string { return "trie" }

// Size returns the number of inserted strings.
func (t *Trie) Size() int { return t.size }

// Search returns the corpus string with minimum edit distance to q.
func (t *Trie) Search(q []rune) Nearest { return nearest(t, q) }

// KNearest returns the k nearest distinct corpus strings, closest first.
func (t *Trie) KNearest(q []rune, k int) []Result { return kNearest(t, q, k) }

// Query answers req over the *distinct* corpus strings. The trie holds one
// node per distinct string — duplicates keep their first corpus index — so
// on a corpus with repeated strings the answer holds at most one entry per
// value where Linear would list each occurrence. The walk abandons a
// subtree once its DP-row minimum exceeds the pruning bound τ (the radius,
// or the k-th best distance so far); rows at τ still descend so that
// equal-distance strings with smaller corpus indices can claim their rank.
// Computations counts visited trie nodes, the structure's analogue of
// distance computations; Rejections stay zero (the pruning is structural).
func (t *Trie) Query(ctx context.Context, q []rune, req Request) (Answer, error) {
	c := newCollector(ctx, req, t.distinct)
	if c.done(t.distinct) {
		return c.answer()
	}
	n := len(q)
	firstRow := make([]int, n+1)
	for j := range firstRow {
		firstRow[j] = j
	}
	var walk func(node *trieNode, row []int)
	walk = func(node *trieNode, row []int) {
		if c.chk.Hit() {
			return
		}
		c.st.Computations++
		if node.index >= 0 {
			c.offer(node.index, float64(row[n]))
		}
		// The row minimum is a lower bound for every completion below here.
		if float64(slices.Min(row)) > c.tau {
			return
		}
		next := make([]int, n+1)
		for r, child := range node.children {
			next[0] = row[0] + 1
			for j := 1; j <= n; j++ {
				d := next[j-1] + 1
				if v := row[j] + 1; v < d {
					d = v
				}
				v := row[j-1]
				if q[j-1] != r {
					v++
				}
				if v < d {
					d = v
				}
				next[j] = d
			}
			walk(child, next)
		}
	}
	walk(t.root, firstRow)
	return c.answer()
}
