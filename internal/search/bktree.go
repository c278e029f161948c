package search

import (
	"context"
	"sort"
	"sync"

	"ced/internal/bulk"
	"ced/internal/metric"
	"ced/internal/pool"
)

// BKTree is a Burkhard-Keller tree: a tree for *integer-valued* metrics
// (here the plain edit distance dE) where each child edge is labelled with
// a distance value. Queries prune edges outside [d − best, d + best]. It is
// the classic dictionary-search structure and serves as the dE-only
// ablation baseline; real-valued metrics like dC need LAESA or a VP-tree.
type BKTree struct {
	corpus [][]rune
	eval   evaluator
	root   *bkNode
	size   int
}

type bkNode struct {
	index    int
	children map[int]*bkNode
	maxEdge  int // largest child edge label; 0 for leaves
}

// The walk evaluates nodes with cutoff = pruning bound + the node's largest
// child edge: a bail then proves d > bound (the node itself is rejected)
// and every child edge e satisfies e ≤ maxEdge < d − bound (the whole
// [d−bound, d+bound] edge window is empty), so the walk can stop without
// knowing d.

// NewBKTree builds a BK-tree over corpus. The metric must return
// non-negative integer values (as dE does); NewBKTree does not verify this,
// and a fractional metric silently degrades lookup correctness. The build
// batches distance evaluations over all CPUs; the tree is identical to
// inserting the corpus serially in order (NewBKTreeWorkers controls the
// worker count).
func NewBKTree(corpus [][]rune, m metric.Metric) *BKTree {
	return NewBKTreeWorkers(corpus, m, 0)
}

// NewBKTreeWorkers is NewBKTree with an explicit build worker count (<= 0
// uses all CPUs).
//
// Serial insertion walks each element down the tree, computing one distance
// per visited node — but the elements reaching any given node are known up
// front: the node's subtree holds exactly the corpus elements whose edge
// labels matched along the path, in corpus order, rooted at the first of
// them. The bulk build exploits that: per node it fans the distances from
// every remaining element to the node's root over striped workers (one
// metric session each), groups elements by edge label, and recurses into
// the label groups — concurrently while spare workers exist. The resulting
// tree, including every edge label and maxEdge, is identical to serial
// insertion, and the total distance evaluations are the same ones serial
// insertion would have spent.
func NewBKTreeWorkers(corpus [][]rune, m metric.Metric, workers int) *BKTree {
	t := &BKTree{corpus: corpus, eval: newEvaluator(m), size: len(corpus)}
	if len(corpus) == 0 {
		return t
	}
	ev := bulk.New(m)
	if workers = pool.Workers(len(corpus), workers); workers <= 1 {
		// One worker: classic element-at-a-time insertion. It spends the
		// same distance evaluations as the batched build but none of its
		// per-node grouping overhead, and produces the same tree.
		t.insertSerial(ev)
		return t
	}
	b := &bkBuilder{t: t, ev: ev, pool: newBuildPool(workers)}
	items := make([]int, len(corpus))
	for i := range items {
		items[i] = i
	}
	t.root = b.build(items)
	return t
}

// insertSerial builds the tree by inserting every corpus element in order,
// evaluating through one private metric session.
func (t *BKTree) insertSerial(ev *bulk.Evaluator) {
	s := ev.Session()
	defer ev.Release(s)
	t.root = &bkNode{index: 0}
	for i := 1; i < len(t.corpus); i++ {
		node := t.root
		for {
			d := int(s.Distance(t.corpus[i], t.corpus[node.index]))
			child, ok := node.children[d]
			if !ok {
				if node.children == nil {
					node.children = make(map[int]*bkNode)
				}
				node.children[d] = &bkNode{index: i}
				if d > node.maxEdge {
					node.maxEdge = d
				}
				break
			}
			node = child
		}
	}
}

// bkBuilder carries the shared state of one parallel BK-tree construction.
// Its fans and subtree goroutines draw from one buildPool budget, so the
// build never evaluates distances on more than workers goroutines at once.
type bkBuilder struct {
	t    *BKTree
	ev   *bulk.Evaluator
	pool *buildPool
}

// build constructs the subtree holding items (corpus indices in corpus
// order; the first is the subtree root, as it would be under serial
// insertion).
func (b *bkBuilder) build(items []int) *bkNode {
	node := &bkNode{index: items[0]}
	rest := items[1:]
	if len(rest) == 0 {
		return node
	}
	root := b.t.corpus[node.index]
	// One query (the subtree root) against the level: the batch fan hands
	// each worker chunk to the session's multi-candidate kernel. The BK-tree
	// requires a discrete symmetric metric (dE), so querying root-first is
	// value-identical to the root-second orientation of serial insertion.
	labels := make([]int, len(rest))
	dists := make([]float64, len(rest))
	if fw := b.pool.fanWidth(len(rest)); fw > 1 {
		b.ev.FanBatch(root, len(rest), fw, func(i int) []rune { return b.t.corpus[rest[i]] }, dists)
		b.pool.fanDone(fw)
	} else {
		b.ev.FanBatch(root, len(rest), 1, func(i int) []rune { return b.t.corpus[rest[i]] }, dists)
	}
	for i, d := range dists {
		labels[i] = int(d)
	}
	// Group by edge label, preserving corpus order within each group — the
	// order serial insertion would have descended into the child.
	groups := make(map[int][]int)
	for i, u := range rest {
		groups[labels[i]] = append(groups[labels[i]], u)
		if labels[i] > node.maxEdge {
			node.maxEdge = labels[i]
		}
	}
	node.children = make(map[int]*bkNode, len(groups))
	// Recurse per label, biggest groups first so spare workers pick up the
	// expensive subtrees; label order does not affect the resulting tree.
	edges := make([]int, 0, len(groups))
	for edge := range groups {
		edges = append(edges, edge)
	}
	sort.Slice(edges, func(a, b int) bool {
		if len(groups[edges[a]]) != len(groups[edges[b]]) {
			return len(groups[edges[a]]) > len(groups[edges[b]])
		}
		return edges[a] < edges[b]
	})
	// Each subtree writes its own slot, so spawned and inline builds never
	// touch shared memory; the children map is filled after the barrier.
	built := make([]*bkNode, len(edges))
	var wg sync.WaitGroup
	for pos, edge := range edges {
		pos, group := pos, groups[edge]
		if b.pool.trySpawn(len(group), &wg, func() { built[pos] = b.build(group) }) {
			continue
		}
		built[pos] = b.build(group)
	}
	wg.Wait()
	for pos, edge := range edges {
		node.children[edge] = built[pos]
	}
	return node
}

// Name returns "bktree".
func (t *BKTree) Name() string { return "bktree" }

// Size returns the corpus size.
func (t *BKTree) Size() int { return t.size }

// Corpus returns the indexed strings (shared backing; callers must not
// modify).
func (t *BKTree) Corpus() [][]rune { return t.corpus }

// Search returns the nearest neighbour of q.
func (t *BKTree) Search(q []rune) Nearest { return nearest(t, q) }

// KNearest returns the k nearest corpus elements, closest first.
func (t *BKTree) KNearest(q []rune, k int) []Result { return kNearest(t, q, k) }

// Query answers req by descending only the child edges inside [d − τ,
// d + τ], where τ is the radius or the k-th best distance so far — the
// classic BK-tree range query, and its k-NN extension. The walk visits
// children in Go map order, so computation counts vary run to run, but the
// collector's (distance, index) order makes the answer deterministic.
func (t *BKTree) Query(ctx context.Context, q []rune, req Request) (Answer, error) {
	c := newCollector(ctx, req, t.size)
	if c.done(t.size) {
		return c.answer()
	}
	var walk func(n *bkNode)
	walk = func(n *bkNode) {
		if c.chk.Hit() {
			return
		}
		d, exact := c.eval(t.eval, q, t.corpus[n.index], c.tau+float64(n.maxEdge))
		if !exact {
			return // d > τ + maxEdge: no hit here and every edge window empty
		}
		c.offer(n.index, d)
		for edge, child := range n.children {
			if float64(edge) >= d-c.tau && float64(edge) <= d+c.tau {
				walk(child)
			}
		}
	}
	walk(t.root)
	return c.answer()
}
