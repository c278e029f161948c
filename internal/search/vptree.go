package search

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"ced/internal/bulk"
	"ced/internal/metric"
	"ced/internal/pool"
)

// VPTree is a vantage-point tree (Yianilos 1993): a binary tree where each
// node holds a vantage element and the median distance from it to the
// elements below; queries prune whole subtrees with the triangle
// inequality. It needs only O(n log n) preprocessing distance computations
// (vs LAESA's pivots×n) but prunes less aggressively per computed distance.
// Included for the "other methods that use metric properties" ablation of
// §4.3.
type VPTree struct {
	corpus [][]rune
	eval   evaluator
	root   *vpNode

	// PreprocessComputations counts the distance evaluations spent
	// building the tree.
	PreprocessComputations int
}

// The walk evaluates vantages with cutoff = node radius + current pruning
// bound: a bail then proves the distance d satisfies every traversal
// predicate at once — d exceeds the bound (no hit), d − bound > radius (the
// inside ball cannot contain a hit) and d > radius (the query sits
// outside) — so the walk can descend outside-only without knowing d.

type vpNode struct {
	index   int // corpus index of the vantage point
	radius  float64
	inside  *vpNode // elements with d(vp, ·) <= radius
	outside *vpNode
}

// NewVPTree builds a vantage-point tree over corpus; seed drives the random
// vantage-point choices. Construction fans partition distances and subtree
// builds over all CPUs; the tree is identical for any worker count
// (NewVPTreeWorkers controls the count).
func NewVPTree(corpus [][]rune, m metric.Metric, seed int64) *VPTree {
	return NewVPTreeWorkers(corpus, m, seed, 0)
}

// NewVPTreeWorkers is NewVPTree with an explicit build worker count
// (<= 0 uses all CPUs).
//
// Parallelism has two levels — each node's partition distances fan over
// striped workers with private metric sessions, and the two subtrees below
// a split build concurrently — both drawing goroutines from one buildPool
// budget, so the build never evaluates distances on more than workers
// goroutines at once. Vantage choices come from a split-deterministic
// RNG — every node derives its own seed from its parent's, not from a
// shared sequence — so the tree shape, every radius and
// PreprocessComputations are identical for any worker count and depend
// only on the seed. (The vantage sequence differs from the pre-split
// serial builder, which threaded one RNG through the recursion; fixed-seed
// trees built before this change are therefore not reproduced node for
// node.)
func NewVPTreeWorkers(corpus [][]rune, m metric.Metric, seed int64, workers int) *VPTree {
	t := &VPTree{corpus: corpus, eval: newEvaluator(m)}
	n := len(corpus)
	if n == 0 {
		return t
	}
	b := &vpBuilder{
		t:    t,
		ev:   bulk.New(m),
		pool: newBuildPool(pool.Workers(n, workers)),
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t.root = b.build(idx, splitmix(uint64(seed)))
	t.PreprocessComputations = int(b.comps.Load())
	return t
}

// vpBuilder carries the shared state of one parallel VP-tree construction.
type vpBuilder struct {
	t     *VPTree
	ev    *bulk.Evaluator
	pool  *buildPool
	comps atomic.Int64 // deterministic: one evaluation per (node, element below it)
}

// splitmix is the SplitMix64 mixer (Steele, Lea, Flood 2014): the per-node
// seed derivation behind the split-deterministic RNG. Each build node mixes
// its seed once for the vantage choice and derives independent child seeds,
// so no RNG state is shared between concurrent subtree builds.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// build constructs the subtree over idx (a private slice: subtree builds
// never share backing arrays). seed is this node's private RNG state.
func (b *vpBuilder) build(idx []int, seed uint64) *vpNode {
	if len(idx) == 0 {
		return nil
	}
	// Random vantage point; swap it out of the candidate list.
	vpPos := int(splitmix(seed) % uint64(len(idx)))
	idx[0], idx[vpPos] = idx[vpPos], idx[0]
	node := &vpNode{index: idx[0]}
	rest := idx[1:]
	if len(rest) == 0 {
		return node
	}
	vp := b.t.corpus[node.index]
	// One query (the vantage point) against the whole candidate set: the
	// batch fan lets sessions resolve each worker chunk through their
	// multi-candidate kernels; values are bit-identical to per-pair calls.
	dists := make([]float64, len(rest))
	if fw := b.pool.fanWidth(len(rest)); fw > 1 {
		b.ev.FanBatch(vp, len(rest), fw, func(i int) []rune { return b.t.corpus[rest[i]] }, dists)
		b.pool.fanDone(fw)
	} else {
		b.ev.FanBatch(vp, len(rest), 1, func(i int) []rune { return b.t.corpus[rest[i]] }, dists)
	}
	b.comps.Add(int64(len(rest)))
	// Median split: sort candidates by distance to the vantage point.
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	mid := len(order) / 2
	node.radius = dists[order[mid]]
	inside := make([]int, 0, mid+1)
	outside := make([]int, 0, len(order)-mid)
	for _, o := range order {
		if dists[o] <= node.radius {
			inside = append(inside, rest[o])
		} else {
			outside = append(outside, rest[o])
		}
	}
	insideSeed := splitmix(seed ^ 0xa5a5a5a5a5a5a5a5)
	outsideSeed := splitmix(seed ^ 0x5a5a5a5a5a5a5a5a)
	// Build the outside subtree on a spare worker when one is free (and the
	// subtree is big enough to pay for the goroutine), the inside subtree
	// inline meanwhile.
	var wg sync.WaitGroup
	spawned := b.pool.trySpawn(len(outside), &wg, func() {
		node.outside = b.build(outside, outsideSeed)
	})
	node.inside = b.build(inside, insideSeed)
	if spawned {
		wg.Wait()
	} else {
		node.outside = b.build(outside, outsideSeed)
	}
	return node
}

// Name returns "vptree".
func (t *VPTree) Name() string { return "vptree" }

// Size returns the corpus size.
func (t *VPTree) Size() int { return len(t.corpus) }

// Corpus returns the indexed strings (shared backing; callers must not
// modify).
func (t *VPTree) Corpus() [][]rune { return t.corpus }

// Search returns the nearest neighbour of q.
func (t *VPTree) Search(q []rune) Nearest { return nearest(t, q) }

// KNearest returns the k nearest corpus elements, closest first.
func (t *VPTree) KNearest(q []rune, k int) []Result { return kNearest(t, q, k) }

// Query answers req by tree descent, pruning every subtree the ball of
// radius τ around q cannot reach (τ is the radius, or the k-th best
// distance so far).
func (t *VPTree) Query(ctx context.Context, q []rune, req Request) (Answer, error) {
	c := newCollector(ctx, req, len(t.corpus))
	if c.done(len(t.corpus)) {
		return c.answer()
	}
	var walk func(n *vpNode)
	walk = func(n *vpNode) {
		if n == nil || c.chk.Hit() {
			return
		}
		d, exact := c.eval(t.eval, q, t.corpus[n.index], n.radius+c.tau)
		if !exact {
			// d > radius + τ: the vantage is no hit and the inside ball
			// cannot hold one either (τ only shrinks).
			walk(n.outside)
			return
		}
		c.offer(n.index, d)
		// Visit the side containing q first; prune the other side when the
		// ball around q cannot cross the split radius.
		if d <= n.radius {
			walk(n.inside)
			if d+c.tau >= n.radius {
				walk(n.outside)
			}
		} else {
			walk(n.outside)
			if d-c.tau <= n.radius {
				walk(n.inside)
			}
		}
	}
	walk(t.root)
	return c.answer()
}
