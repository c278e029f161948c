package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"

	"ced/internal/core"
	"ced/internal/editdist"
)

// model is the oracle: the live set the program should hold, mutated by
// replaying the run's own writes, and scanned linearly with the reference
// kernels (the exact dC of internal/core, the Wagner–Fischer dE of
// internal/editdist).
type model struct {
	dist   func(a, b []rune) float64
	ids    []uint64
	vals   [][]rune
	labels []int
	pos    map[uint64]int
}

func referenceKernel(dist string) func(a, b []rune) float64 {
	if dist == "dE" {
		return func(a, b []rune) float64 { return float64(editdist.Distance(a, b)) }
	}
	return core.Distance
}

func newModel(dist string, corpus []string, labels []int) *model {
	m := &model{dist: referenceKernel(dist), pos: make(map[uint64]int, len(corpus))}
	for i, v := range corpus {
		label := 0
		if labels != nil {
			label = labels[i]
		}
		m.add(uint64(i), v, label)
	}
	return m
}

func (m *model) add(id uint64, v string, label int) {
	m.pos[id] = len(m.ids)
	m.ids = append(m.ids, id)
	m.vals = append(m.vals, []rune(v))
	m.labels = append(m.labels, label)
}

func (m *model) remove(id uint64) {
	j, ok := m.pos[id]
	if !ok {
		return
	}
	last := len(m.ids) - 1
	m.ids[j], m.vals[j], m.labels[j] = m.ids[last], m.vals[last], m.labels[last]
	m.pos[m.ids[j]] = j
	m.ids, m.vals, m.labels = m.ids[:last], m.vals[:last], m.labels[:last]
	delete(m.pos, id)
}

// scan returns the distance from q to every live element, aligned with
// m.ids, fanned over every CPU (the scan runs after the timed phase).
func (m *model) scan(q string) []float64 {
	rq := []rune(q)
	out := make([]float64, len(m.ids))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(out); i += workers {
				out[i] = m.dist(rq, m.vals[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

// checker replays an op log against the model. Every write is checked;
// reads are checked on a fixed seeded sample (see workload.sampleEvery).
type checker struct {
	w      *workload
	in     *inputs
	m      *model
	digits map[string]bool // digits: the sampled distinct queries
	// dists caches, per sampled digits query, the distance to every ID
	// scanned so far; an ID's value never changes, so entries never go
	// stale.
	dists   map[string]map[uint64]float64
	checked int // read answers compared with the oracle
	reads   int
	failed  int // failed ops
	msgs    []string

	opFailed bool
}

// digitsSample is the number of distinct test digits whose every answer
// the oracle checks: each costs a full scan of 600 exact contour
// distances.
const digitsSample = 8

func newChecker(w *workload, in *inputs) *checker {
	c := &checker{w: w, in: in, m: newModel(w.dist, in.corpus, in.labels)}
	if w.sampleEvery == 0 {
		var distinct []string
		seen := map[string]bool{}
		for _, o := range in.ops {
			for _, q := range o.queries {
				if !seen[q] {
					seen[q] = true
					distinct = append(distinct, q)
				}
			}
		}
		rng := rand.New(rand.NewSource(in.seed))
		rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
		c.digits = map[string]bool{}
		for _, q := range distinct[:min(digitsSample, len(distinct))] {
			c.digits[q] = true
		}
		c.dists = map[string]map[uint64]float64{}
	}
	return c
}

// fail records why op i failed; the op counts once however many checks
// it fails.
func (c *checker) fail(i int, o *op, format string, args ...any) {
	c.opFailed = true
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf("op %d %s: %s", i, opPaths[o.kind], fmt.Sprintf(format, args...)))
	}
}

// sampled reports whether read op i is in the oracle's seeded sample.
func (c *checker) sampled(i int) bool {
	return mix64(uint64(c.in.seed)^mix64(uint64(i)))%c.w.sampleEvery == 0
}

// replay checks ops[i] against recs[i] for i in [0, n), in order.
func (c *checker) replay(ops []op, recs []record, n int) {
	for i := 0; i < n; i++ {
		c.opFailed = false
		c.check(i, &ops[i], &recs[i])
		if c.opFailed {
			c.failed++
		}
	}
}

func (c *checker) check(i int, o *op, r *record) {
	if o.kind.read() {
		c.reads++
	}
	if r.status != http.StatusOK {
		c.fail(i, o, "%s", r.err)
		c.apply(o)
		return
	}
	switch o.kind {
	case opAdd, opDelete:
		c.apply(o)
		if o.kind == opAdd && r.id != o.id {
			c.fail(i, o, "minted id %d, want %d", r.id, o.id)
		}
		if r.size != len(c.m.ids) {
			c.fail(i, o, "live size %d, oracle has %d", r.size, len(c.m.ids))
		}
	case opKNN:
		if c.sampled(i) {
			c.checked++
			if msg := c.checkKNN(o.queries[0], r); msg != "" {
				c.fail(i, o, "%q: %s", o.queries[0], msg)
			}
		}
	case opRadius:
		if c.sampled(i) {
			c.checked++
			if msg := c.checkRadius(o.queries[0], r); msg != "" {
				c.fail(i, o, "%q: %s", o.queries[0], msg)
			}
		}
	case opClassify:
		if r.nhits != len(o.queries) {
			c.fail(i, o, "%d predictions for %d queries", r.nhits, len(o.queries))
			return
		}
		for j, q := range o.queries {
			if !c.digits[q] {
				continue
			}
			c.checked++
			if msg := c.checkClassify(q, r.hits[j]); msg != "" {
				c.fail(i, o, "query %d: %s", j, msg)
			}
		}
	}
}

// apply mirrors a write into the model (also for failed writes: the run
// has failed either way, and later ops are still checked against the
// intended live set).
func (c *checker) apply(o *op) {
	switch o.kind {
	case opAdd:
		c.m.add(o.id, o.value, o.label)
	case opDelete:
		c.m.remove(o.id)
	}
}

// checkKNN compares a k-NN answer by distance multiset, allowing ties at
// rank k: the distances must equal the oracle's k smallest, every element
// strictly closer than the k-th distance must be present, and every
// returned ID must be live at the distance reported.
func (c *checker) checkKNN(q string, r *record) string {
	ds := c.m.scan(q)
	order := make([]int, len(ds))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ds[order[a]] != ds[order[b]] {
			return ds[order[a]] < ds[order[b]]
		}
		return c.m.ids[order[a]] < c.m.ids[order[b]]
	})
	k := min(knnK, len(ds))
	if r.nhits != k {
		return fmt.Sprintf("%d hits, oracle has %d", r.nhits, k)
	}
	kth := ds[order[k-1]]
	got := map[uint64]bool{}
	for j := 0; j < k; j++ {
		h := r.hits[j]
		p, live := c.m.pos[h.id]
		if !live {
			return fmt.Sprintf("rank %d: id %d is not live", j, h.id)
		}
		if ds[p] != h.dist {
			return fmt.Sprintf("rank %d: id %d reported at %v, oracle %v", j, h.id, h.dist, ds[p])
		}
		if want := ds[order[j]]; h.dist != want {
			return fmt.Sprintf("rank %d: distance %v, oracle %v", j, h.dist, want)
		}
		got[h.id] = true
	}
	for j := 0; j < k; j++ {
		if id := c.m.ids[order[j]]; ds[order[j]] < kth && !got[id] {
			return fmt.Sprintf("missing id %d at %v (below the k-th distance %v)", id, ds[order[j]], kth)
		}
	}
	return ""
}

// checkRadius compares a radius answer by ID set (with distances), via
// the order-independent digest the client kept.
func (c *checker) checkRadius(q string, r *record) string {
	ds := c.m.scan(q)
	n, digest := 0, uint64(0)
	for i, d := range ds {
		if d <= spellRadius {
			n++
			digest += hitDigest(c.m.ids[i], d)
		}
	}
	if r.nhits != n || r.digest != digest {
		return fmt.Sprintf("%d hits (digest %x), oracle has %d (digest %x)", r.nhits, r.digest, n, digest)
	}
	return ""
}

// checkClassify accepts any label found at the minimal distance, provided
// the reported neighbour is live at that distance.
func (c *checker) checkClassify(q string, h hit) string {
	cache := c.dists[q]
	if cache == nil {
		cache = make(map[uint64]float64, len(c.m.ids))
		for i, d := range c.m.scan(q) {
			cache[c.m.ids[i]] = d
		}
		c.dists[q] = cache
	}
	best, labels := math.Inf(1), map[int]bool{}
	var rq []rune
	for i, id := range c.m.ids {
		d, ok := cache[id]
		if !ok { // added since the scan
			if rq == nil {
				rq = []rune(q)
			}
			d = c.m.dist(rq, c.m.vals[i])
			cache[id] = d
		}
		switch {
		case d < best:
			best, labels = d, map[int]bool{c.m.labels[i]: true}
		case d == best:
			labels[c.m.labels[i]] = true
		}
	}
	if h.dist != best {
		return fmt.Sprintf("nearest at %v, oracle %v", h.dist, best)
	}
	if !labels[h.label] {
		return fmt.Sprintf("label %d is not at the minimal distance", h.label)
	}
	if _, live := c.m.pos[h.id]; !live || cache[h.id] != h.dist {
		return fmt.Sprintf("neighbour %d is not live at %v", h.id, h.dist)
	}
	return ""
}
