package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ced/internal/metric"
)

// The tracer records, from outside the program, spans at the seams the
// program already accepts: the client's transport (root spans), handler
// wrappers (edge server and shard servers), the coordinator's HTTP client
// (shard calls) and a forwarding metric (evaluation counts and busy time
// per returned ladder rung). Spans stay in memory until the run ends.

// Span layers.
const (
	layerClient uint8 = iota
	layerEdge
	layerShardServer
	layerShardCall
)

// Evaluation keys: the four ladder rungs a rejection can come from, then
// evaluations that completed (returned an exact distance).
const (
	keyComplete = metric.NumStages
	numKeys     = metric.NumStages + 1
)

var keyNames = [numKeys]string{"length", "edit", "heuristic", "exact", "complete"}

type span struct {
	layer      uint8
	write      bool  // the request was an /add or /delete
	op         int   // root spans: the op index (the trace id)
	start, end int64 // ns since the tracer's epoch
	bytes      int64 // root: response bytes; shard call: request + response
	evals      evalSnap
}

func (s span) dur() int64 { return s.end - s.start }

// evalAcc accumulates query-path evaluations by key.
type evalAcc struct{ n, ns [numKeys]atomic.Int64 }

type evalSnap struct{ n, ns [numKeys]int64 }

func (a *evalAcc) note(key int, d time.Duration) {
	a.n[key].Add(1)
	a.ns[key].Add(int64(d))
}

func (a *evalAcc) snap() (s evalSnap) {
	for k := range s.n {
		s.n[k] = a.n[k].Load()
		s.ns[k] = a.ns[k].Load()
	}
	return s
}

func (s evalSnap) sub(o evalSnap) evalSnap {
	for k := range s.n {
		s.n[k] -= o.n[k]
		s.ns[k] -= o.ns[k]
	}
	return s
}

func (s evalSnap) add(o evalSnap) evalSnap {
	for k := range s.n {
		s.n[k] += o.n[k]
		s.ns[k] += o.ns[k]
	}
	return s
}

// busy is the evaluations' time with the timer's own cost (inside, per
// timed call) subtracted.
func (s evalSnap) busy(inside float64) float64 {
	var n, ns int64
	for k := range s.n {
		n += s.n[k]
		ns += s.ns[k]
	}
	return max(0, float64(ns)-float64(n)*inside)
}

// buildAcc accumulates build-path evaluations (sessions: index builds and
// background compaction). Batch calls are timed once per call.
type buildAcc struct{ evals, calls, ns atomic.Int64 }

type buildSnap struct{ evals, calls, ns int64 }

func (a *buildAcc) note(evals int, d time.Duration) {
	a.evals.Add(int64(evals))
	a.calls.Add(1)
	a.ns.Add(int64(d))
}

func (a *buildAcc) snap() buildSnap {
	return buildSnap{a.evals.Load(), a.calls.Load(), a.ns.Load()}
}

func (s buildSnap) sub(o buildSnap) buildSnap {
	return buildSnap{s.evals - o.evals, s.calls - o.calls, s.ns - o.ns}
}

func (s buildSnap) busy(inside float64) float64 {
	return max(0, float64(s.ns)-float64(s.calls)*inside)
}

type tracer struct {
	epoch time.Time
	// inside is the calibrated cost of the timer itself as seen inside a
	// timed region (ns); pair is the full cost of one time.Now/time.Since
	// pair.
	inside, pair float64
	query        evalAcc
	build        buildAcc

	mu    sync.Mutex
	spans []span
}

func newTracer(inside, pair float64) *tracer {
	return &tracer{epoch: time.Now(), inside: inside, pair: pair, spans: make([]span, 0, 1<<16)}
}

// calibrateTimer measures the timer's cost: the median over rounds of the
// mean time.Since value of an empty region (inside) and of the whole
// Now/Since pair.
func calibrateTimer() (inside, pair float64) {
	const rounds, n = 15, 20000
	ins, pairs := make([]float64, rounds), make([]float64, rounds)
	for r := range ins {
		var sum time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		pairs[r] = float64(time.Since(start)) / n
		ins[r] = float64(sum) / n
	}
	return median(ins), median(pairs)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func isWrite(path string) bool {
	return strings.HasSuffix(path, "/add") || strings.HasSuffix(path, "/delete")
}

// handler wraps h in a span of the given layer. A nil tracer returns h.
func (t *tracer) handler(layer uint8, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{layer: layer, write: isWrite(r.URL.Path), start: start, end: t.now()})
	})
}

// root wraps the client's transport: one root span per op request, from
// sending the request to the last byte of the response, carrying the
// query-path evaluations made meanwhile (one request is in flight).
func (t *tracer) root(next http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		i, ok := req.Context().Value(opKey{}).(int)
		if !ok {
			return next.RoundTrip(req)
		}
		start, before := t.now(), t.query.snap()
		return t.traceRoundTrip(next, req, func(n int64) {
			t.record(span{layer: layerClient, op: i, write: isWrite(req.URL.Path),
				start: start, end: t.now(), bytes: n, evals: t.query.snap().sub(before)})
		})
	})
}

// shardCalls wraps the coordinator's transport: one span per shard call.
func (t *tracer) shardCalls(next http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		start := t.now()
		return t.traceRoundTrip(next, req, func(n int64) {
			t.record(span{layer: layerShardCall, start: start, end: t.now(), bytes: n + max(0, req.ContentLength)})
		})
	})
}

// traceRoundTrip runs the round trip and calls done with the response
// byte count once the body is read to its end or closed.
func (t *tracer) traceRoundTrip(next http.RoundTripper, req *http.Request, done func(n int64)) (*http.Response, error) {
	resp, err := next.RoundTrip(req)
	if err != nil {
		done(0)
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, done: done}
	return resp, nil
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingBody counts response bytes and reports them once, at EOF or
// Close, whichever comes first.
type countingBody struct {
	rc   io.ReadCloser
	n    int64
	done func(int64)
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.rc.Close()
}

// request is the spans of one traced op, attributed by interval: with one
// request in flight, every server span that starts inside a root span
// belongs to it.
type request struct {
	root     span
	edge     span
	hasEdge  bool
	servers  []span
	calls    []span
	isRead   bool
	answers  int
	engineMS float64
}

// requests attributes the recorded spans to their root spans, in op order.
func (t *tracer) requests() []request {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	var reqs []request
	for _, s := range spans {
		if s.layer == layerClient {
			reqs = append(reqs, request{root: s})
		}
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].root.start < reqs[b].root.start })
	for _, s := range spans {
		if s.layer == layerClient {
			continue
		}
		j := sort.Search(len(reqs), func(j int) bool { return reqs[j].root.start > s.start }) - 1
		if j < 0 || s.start > reqs[j].root.end {
			continue // outside every op: health polls, probes
		}
		r := &reqs[j]
		switch s.layer {
		case layerEdge:
			if !r.hasEdge || s.dur() > r.edge.dur() {
				r.edge, r.hasEdge = s, true
			}
		case layerShardServer:
			r.servers = append(r.servers, s)
		case layerShardCall:
			r.calls = append(r.calls, s)
		}
	}
	return reqs
}

var layerNames = [...]string{"client", "edge", "shard_server", "shard_call"}

// writeSpans writes every recorded span to path, one JSON object a line.
// Root spans carry their op index and the query-path evaluations (count
// and ns by key: length, edit, heuristic, exact rejections, complete).
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	type line struct {
		Layer  string          `json:"layer"`
		Op     *int            `json:"op,omitempty"`
		Write  bool            `json:"write,omitempty"`
		Start  int64           `json:"start_ns"`
		End    int64           `json:"end_ns"`
		Bytes  int64           `json:"bytes,omitempty"`
		Evals  *[numKeys]int64 `json:"evals,omitempty"`
		EvalNS *[numKeys]int64 `json:"eval_ns,omitempty"`
	}
	for _, s := range spans {
		l := line{Layer: layerNames[s.layer], Write: s.write, Start: s.start, End: s.end, Bytes: s.bytes}
		if s.layer == layerClient {
			l.Op, l.Evals, l.EvalNS = &s.op, &s.evals.n, &s.evals.ns
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the part of [lo, hi] that the spans' intervals cover.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		total += v[1] - max(v[0], end)
		end = v[1]
	}
	return total
}

// wrap returns the forwarding metric around m. It exposes exactly m's
// capability set as this benchmark's distances have it — Staged and
// Sessioner on the metric, Staged and Batcher on its sessions — and
// refuses any other shape rather than change the program's code path.
func (t *tracer) wrap(m metric.Metric) (metric.Metric, error) {
	st, ok := m.(metric.Staged)
	ses, ok2 := m.(metric.Sessioner)
	if !ok || !ok2 {
		return nil, fmt.Errorf("forwarding metric: %s is not Staged+Sessioner", m.Name())
	}
	probe := ses.Session()
	if _, ok := probe.(metric.Staged); !ok {
		return nil, fmt.Errorf("forwarding metric: %s sessions are not Staged", m.Name())
	}
	if _, ok := probe.(metric.Batcher); !ok {
		return nil, fmt.Errorf("forwarding metric: %s sessions are not Batchers", m.Name())
	}
	return &fwdMetric{inner: st, ses: ses, t: t}, nil
}

// fwdMetric forwards every call to the inner metric unchanged. Calls on
// the shared metric are the query path (the searchers' bounded
// evaluations); calls on its sessions are the build path (index builds
// and compaction go through internal/bulk's per-worker sessions).
type fwdMetric struct {
	inner metric.Staged
	ses   metric.Sessioner
	t     *tracer
}

func (f *fwdMetric) Name() string { return f.inner.Name() }

func (f *fwdMetric) Distance(a, b []rune) float64 {
	start := time.Now()
	d := f.inner.Distance(a, b)
	f.t.query.note(keyComplete, time.Since(start))
	return d
}

// DistanceBounded reports no rung; the searchers prefer DistanceStaged, so
// a bail here is counted at the exact rung.
func (f *fwdMetric) DistanceBounded(a, b []rune, cutoff float64) (float64, bool) {
	start := time.Now()
	d, exact := f.inner.DistanceBounded(a, b, cutoff)
	key := int(metric.StageExact)
	if exact {
		key = keyComplete
	}
	f.t.query.note(key, time.Since(start))
	return d, exact
}

func (f *fwdMetric) DistanceStaged(a, b []rune, cutoff float64) (float64, bool, metric.Stage) {
	start := time.Now()
	d, exact, stage := f.inner.DistanceStaged(a, b, cutoff)
	elapsed := time.Since(start)
	key := int(stage)
	if exact {
		key = keyComplete
	}
	f.t.query.note(key, elapsed)
	return d, exact, stage
}

func (f *fwdMetric) Session() metric.Metric {
	s := f.ses.Session()
	return &fwdSession{inner: s.(metric.Staged), batch: s.(metric.Batcher), t: f.t}
}

// fwdSession forwards a session's calls, timing them as build-path work.
// Like the session it wraps, it is confined to one goroutine.
type fwdSession struct {
	inner metric.Staged
	batch metric.Batcher
	t     *tracer
}

func (s *fwdSession) Name() string { return s.inner.Name() }

func (s *fwdSession) Distance(a, b []rune) float64 {
	start := time.Now()
	d := s.inner.Distance(a, b)
	s.t.build.note(1, time.Since(start))
	return d
}

func (s *fwdSession) DistanceBounded(a, b []rune, cutoff float64) (float64, bool) {
	start := time.Now()
	d, exact := s.inner.DistanceBounded(a, b, cutoff)
	s.t.build.note(1, time.Since(start))
	return d, exact
}

func (s *fwdSession) DistanceStaged(a, b []rune, cutoff float64) (float64, bool, metric.Stage) {
	start := time.Now()
	d, exact, stage := s.inner.DistanceStaged(a, b, cutoff)
	s.t.build.note(1, time.Since(start))
	return d, exact, stage
}

func (s *fwdSession) DistanceBatch(a []rune, bs [][]rune, out []float64) []float64 {
	start := time.Now()
	out = s.batch.DistanceBatch(a, bs, out)
	s.t.build.note(len(bs), time.Since(start))
	return out
}
