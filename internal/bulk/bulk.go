// Package bulk is the session-threaded parallel evaluation layer shared by
// every bulk distance workload in the repository: index construction
// (LAESA pivot rows, the AESA matrix, BK-tree levels), the batch APIs
// (ced.DistanceMatrix, ced.BatchDistance, the serving engine's batch
// endpoints) and the experiment sweeps.
//
// It combines the striped fan-out of internal/pool with the session
// capability of internal/metric: each striped worker evaluates through a
// private metric session (a reusable distance workspace for the contextual
// kernels), so steady-state bulk evaluations allocate nothing and never
// round-trip a shared sync.Pool per call. Sessions produce bit-identical
// values to the plain metric, so fanned values never depend on the worker
// count. Callers that keep per-worker partials (counters, histograms) index
// them by FanWorker's worker and merge them in worker order after the fan
// returns.
package bulk

import (
	"context"
	"sync"

	"ced/internal/cancel"
	"ced/internal/metric"
	"ced/internal/pool"
)

// Evaluator owns the per-goroutine metric sessions of one bulk workload.
// It is safe for concurrent use: sessions are checked out per goroutine
// and recycled warm across fans. The metric itself is handed out when it
// cannot mint sessions (plain metrics are safe for concurrent use by the
// metric.Metric contract).
type Evaluator struct {
	m        metric.Metric
	sessions *sync.Pool // nil when m is not a metric.Sessioner
}

// New returns an evaluator for m. Construction is cheap; sessions are
// minted lazily, one per concurrently active worker, and reused afterwards.
func New(m metric.Metric) *Evaluator {
	e := &Evaluator{m: m}
	if s, ok := m.(metric.Sessioner); ok {
		e.sessions = &sync.Pool{New: func() any { return s.Session() }}
	}
	return e
}

// Metric returns the evaluator's underlying (concurrency-safe) metric.
func (e *Evaluator) Metric() metric.Metric { return e.m }

// Session checks out a metric confined to the calling goroutine: a private
// session when the metric can mint one, the shared metric otherwise. Pair
// with Release so the session's scratch memory stays warm for the next
// caller. Use Session/Release directly for work that is not a fan (the
// BK-tree's serial insertion); the fan methods below handle the common
// striped case.
//
//ced:poolleak-ok: ownership transfers to the caller, which pairs with Release.
func (e *Evaluator) Session() metric.Metric {
	if e.sessions == nil {
		return e.m
	}
	return e.sessions.Get().(metric.Metric)
}

// Release returns a session checked out with Session.
func (e *Evaluator) Release(s metric.Metric) {
	if e.sessions != nil {
		e.sessions.Put(s)
	}
}

// FanWorker runs fn(s, w, i) for every i in [0, n), striped across
// pool.Workers(n, workers) goroutines exactly like pool.FanWorker, with s a
// private session owned by worker w for the whole fan. Everything passed to
// fn(s, w, ·) is confined to goroutine w until FanWorker returns.
func (e *Evaluator) FanWorker(n, workers int, fn func(s metric.Metric, w, i int)) {
	if n <= 0 {
		return
	}
	workers = pool.Workers(n, workers)
	sessions := e.checkout(workers)
	defer e.release(sessions)
	pool.FanWorker(n, workers, func(w, i int) {
		fn(sessions[w], w, i)
	})
}

// Fan is FanWorker without the worker index: fn(s, i) with s private to the
// goroutine evaluating index i.
func (e *Evaluator) Fan(n, workers int, fn func(s metric.Metric, i int)) {
	e.FanWorker(n, workers, func(s metric.Metric, _, i int) { fn(s, i) })
}

// FanCtx is Fan with cooperative cancellation: each striped worker polls a
// private cancellation checkpoint (see internal/cancel) between items and
// stops evaluating once the context is cancelled, skipping its remaining
// stripe. It returns the context's error when any worker stopped early and
// nil when every fn call ran — partial output is only ever paired with a
// non-nil error. With an uncancellable context it is exactly Fan.
func (e *Evaluator) FanCtx(ctx context.Context, n, workers int, fn func(s metric.Metric, i int)) error {
	if n <= 0 {
		return nil
	}
	if cancel.New(ctx) == nil {
		e.Fan(n, workers, fn)
		return nil
	}
	workers = pool.Workers(n, workers)
	checks := make([]*cancel.Check, workers)
	for w := range checks {
		checks[w] = cancel.New(ctx)
	}
	e.FanWorker(n, workers, func(s metric.Metric, w, i int) {
		if checks[w].Hit() {
			return
		}
		fn(s, i)
	})
	for _, c := range checks {
		if c.Stopped() {
			return c.Err()
		}
	}
	return nil
}

// fanBatchBlock is the number of candidates FanBatch hands to one
// DistanceBatch call: large enough to amortise the batch kernels' setup
// (pattern table, lane fill), small enough that the candidate-pointer block
// stays cache-resident and out is filled at a steady cadence.
const fanBatchBlock = 256

// FanChunks splits [0, n) into contiguous per-worker chunks (workers <= 0
// uses all CPUs) and calls fn once per non-empty chunk with that worker's
// private session. It is the fan for work that wants a contiguous index
// range per session — run detection, block assembly — rather than Fan's
// per-item striping.
func (e *Evaluator) FanChunks(n, workers int, fn func(s metric.Metric, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = pool.Workers(n, workers)
	chunk := (n + workers - 1) / workers
	e.FanWorker(workers, workers, func(s metric.Metric, _, w int) {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo < hi {
			fn(s, lo, hi)
		}
	})
}

// FanBatch evaluates one query against candidates [0, n), filling
// out[i] = d(query, cand(i)). The index range is split into contiguous
// per-worker chunks (workers <= 0 uses all CPUs) and each worker resolves
// its chunk through Row on its session, block by block, with the candidate
// slice assembled once per block. Values are bit-identical to per-pair
// Distance calls, so results never depend on the worker count or the
// session's capabilities; this is the batch analogue of Fan for the
// one-query row shape of LAESA pivot rows, VP-tree partitions and BK-tree
// levels.
func (e *Evaluator) FanBatch(query []rune, n, workers int, cand func(i int) []rune, out []float64) {
	e.FanChunks(n, workers, func(s metric.Metric, lo, hi int) {
		bs := make([][]rune, 0, min(hi-lo, fanBatchBlock))
		for blo := lo; blo < hi; blo += fanBatchBlock {
			bhi := min(blo+fanBatchBlock, hi)
			bs = bs[:0]
			for i := blo; i < bhi; i++ {
				bs = append(bs, cand(i))
			}
			Row(s, query, bs, out[blo:bhi])
		}
	})
}

// Matrix returns the full symmetric distance matrix over data: out[i][j] =
// d(data[i], data[j]), zeros on the diagonal. Rows are striped over the
// workers (workers <= 0 uses all CPUs); row i evaluates data[i] against
// data[i+1:] through Row on its worker's session and mirrors the values
// into the lower triangle, so the metric runs n·(n−1)/2 times, every cell
// has one writer, and the values never depend on the worker count.
func (e *Evaluator) Matrix(data [][]rune, workers int) [][]float64 {
	n := len(data)
	out := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range out {
		out[i] = cells[i*n : (i+1)*n]
	}
	e.Fan(n, workers, func(s metric.Metric, i int) {
		Row(s, data[i], data[i+1:], out[i][i+1:])
		for j := i + 1; j < n; j++ {
			out[j][i] = out[i][j]
		}
	})
	return out
}

// Row fills out[i] = s.Distance(query, cands[i]) for every candidate: in
// one DistanceBatch call when s is a metric.Batcher and there is more than
// one candidate, pair by pair otherwise. Values are bit-identical either
// way (the Batcher contract). It is the one "batch or per-pair" branch of
// the bulk layers: FanBatch, Matrix and ced.BatchDistance.
func Row(s metric.Metric, query []rune, cands [][]rune, out []float64) {
	if b, ok := s.(metric.Batcher); ok && len(cands) > 1 {
		b.DistanceBatch(query, cands, out)
		return
	}
	for i, c := range cands {
		out[i] = s.Distance(query, c)
	}
}

// checkout returns one session per worker; release returns them.
func (e *Evaluator) checkout(workers int) []metric.Metric {
	sessions := make([]metric.Metric, workers)
	for w := range sessions {
		sessions[w] = e.Session()
	}
	return sessions
}

func (e *Evaluator) release(sessions []metric.Metric) {
	for _, s := range sessions {
		e.Release(s)
	}
}
