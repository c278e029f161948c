package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/metric"
)

// miniDict is dict at test scale: 300 words, every read checked.
func miniDict() *workload {
	return &workload{
		name: "mini-dict", setups: 1, warm: 20, rate: 100, sampleEvery: 1, dist: "dC",
		gen: func(seed int64, n int) *inputs {
			corpus, ops := mixedStream(seed, n, 300, knnOp, spanishWords)
			return &inputs{seed: seed, corpus: corpus, ops: ops}
		},
		start: startDict,
	}
}

// miniSpell is cluster-spell at test scale: 1,000 words over the
// loopback cluster.
func miniSpell() *workload {
	return &workload{
		name: "mini-spell", setups: 1, warm: 20, rate: 100, sampleEvery: 1, dist: "dE",
		gen: func(seed int64, n int) *inputs {
			corpus, ops := mixedStream(seed, n, 1000, radiusOp, spanishWords)
			return &inputs{seed: seed, corpus: corpus, ops: ops}
		},
		start: startSpell,
	}
}

// miniClassify classifies batches of labelled words (digits' oracle rule:
// every answer to a seeded subset of the distinct queries).
func miniClassify() *workload {
	return &workload{
		name: "mini-classify", setups: 1, warm: 4, rate: 20, deterministic: true, dist: "dC",
		gen: func(seed int64, n int) *inputs {
			d := dataset.Spanish(200, seed)
			labels := make([]int, len(d.Strings))
			for i := range labels {
				labels[i] = i % 3
			}
			qs := dataset.PerturbQueries(d, 12, 1, seed+1).Strings
			rng := rand.New(rand.NewSource(seed))
			in := &inputs{seed: seed, corpus: d.Strings, labels: labels}
			next := uint64(len(d.Strings))
			for i := 0; i < n; i++ {
				batch := make([]string, digitsBatch)
				for j := range batch {
					batch[j] = qs[rng.Intn(len(qs))]
				}
				in.ops = append(in.ops, op{kind: opClassify, queries: batch, body: mustJSON(struct {
					Queries []string `json:"queries"`
				}{batch})})
				if i >= 4 && i%2 == 0 {
					label := i % 3
					in.ops = append(in.ops, addOp("queso", &label, next), deleteOp(next))
					next++
				}
			}
			return in
		},
		start: startDigits,
	}
}

// recordRun runs the workload's whole stream (no time limit), returning
// the records.
func recordRun(t *testing.T, w *workload, n int, tr *tracer) (*inputs, []record, *phase) {
	t.Helper()
	ctx := context.Background()
	in := w.gen(7, n)
	sys, _, err := setUp(ctx, w, in, tr)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]record, len(in.ops))
	ph, err := drive(ctx, w, in, sys, recs, time.Hour, tr, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.close(); err != nil {
		t.Fatal(err)
	}
	if ph.n != len(in.ops) {
		t.Fatalf("sent %d of %d ops", ph.n, len(in.ops))
	}
	return in, recs, ph
}

func check(w *workload, in *inputs, recs []record) *checker {
	c := newChecker(w, in)
	c.replay(in.ops, recs, len(recs))
	return c
}

// TestPlantedWrongAnswerFailsRun pins the oracle: genuine answers pass,
// and one planted wrong answer of each kind fails the run (counts one
// failed op).
func TestPlantedWrongAnswerFailsRun(t *testing.T) {
	cases := []struct {
		name  string
		w     *workload
		kind  opKind
		plant func(r *record)
	}{
		{"knn-distance", miniDict(), opKNN, func(r *record) { r.hits[1].dist += 1e-9 }},
		{"knn-dead-id", miniDict(), opKNN, func(r *record) { r.hits[0].id = r.hits[2].id + 100000 }},
		{"add-id", miniDict(), opAdd, func(r *record) { r.id++ }},
		{"radius-set", miniSpell(), opRadius, func(r *record) { r.digest ^= 1 }},
		{"delete-404", miniSpell(), opDelete, func(r *record) { r.status, r.err = 404, "planted" }},
		{"classify-label", miniClassify(), opClassify, func(r *record) {
			for j := range r.hits {
				r.hits[j].label += 7
			}
		}},
		{"enrol-size", miniClassify(), opAdd, func(r *record) { r.size-- }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, recs, _ := recordRun(t, tc.w, 80, nil)
			if c := check(tc.w, in, recs); c.failed != 0 || c.checked == 0 {
				t.Fatalf("genuine run: %d failed ops (%v), %d answers checked", c.failed, c.msgs, c.checked)
			}
			planted := -1
			for i := tc.w.warm; i < len(in.ops); i++ {
				if in.ops[i].kind != tc.kind {
					continue
				}
				if tc.kind == opClassify && !newChecker(tc.w, in).digits[in.ops[i].queries[0]] {
					continue // only sampled queries are compared
				}
				planted = i
				break
			}
			if planted < 0 {
				t.Fatalf("no %s op to plant into", opPaths[tc.kind])
			}
			tc.plant(&recs[planted])
			c := check(tc.w, in, recs)
			if c.failed != 1 {
				t.Fatalf("planted wrong answer at op %d: %d failed ops, want 1 (%v)", planted, c.failed, c.msgs)
			}
		})
	}
}

// TestTracedRunKeepsCodePath pins the forwarding metric: a traced run of
// a one-shard read-only workload reports the same fingerprint as an
// untraced one, attributes spans to every op and sees the build.
func TestTracedRunKeepsCodePath(t *testing.T) {
	w := miniClassify()
	_, _, plain := recordRun(t, w, 12, nil)
	inside, pair := calibrateTimer()
	tr := newTracer(inside, pair)
	in, recs, traced := recordRun(t, w, 12, tr)
	if plain.fp != traced.fp || traced.fp.comps == 0 {
		t.Fatalf("fingerprints differ: untraced %v, traced %v", plain.fp, traced.fp)
	}
	if b := tr.build.snap(); b.evals == 0 {
		t.Fatal("no build-path evaluations seen")
	}
	reqs := tr.requests()
	if len(reqs) != len(in.ops) {
		t.Fatalf("%d traced requests, want %d", len(reqs), len(in.ops))
	}
	for _, q := range reqs {
		if !q.hasEdge || q.edge.dur() > q.root.dur() {
			t.Fatalf("op %d: edge span %v not inside root span %v", q.root.op, q.edge, q.root)
		}
		if i := q.root.op; recs[i].comps > 0 && q.root.evals.n == [numKeys]int64{} {
			t.Fatalf("op %d: no evaluations attributed", i)
		}
	}
}

// TestForwardingMetricIsTransparent pins bit-identical values and the
// exposed capability set for both distances the benchmark serves.
func TestForwardingMetricIsTransparent(t *testing.T) {
	tr := newTracer(0, 0)
	words := dataset.Spanish(40, 3).Runes()
	for _, name := range []string{"dC", "dE"} {
		inner, err := metric.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := tr.wrap(inner)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(metric.Staged); !ok {
			t.Fatalf("%s: forwarding metric is not Staged", name)
		}
		st := inner.(metric.Staged)
		for i := 1; i < len(words); i++ {
			a, b := words[0], words[i]
			if got, want := m.Distance(a, b), inner.Distance(a, b); got != want {
				t.Fatalf("%s Distance: %v, want %v", name, got, want)
			}
			gd, ge, gs := m.(metric.Staged).DistanceStaged(a, b, 0.5)
			wd, we, ws := st.DistanceStaged(a, b, 0.5)
			if gd != wd || ge != we || gs != ws {
				t.Fatalf("%s DistanceStaged: (%v %v %v), want (%v %v %v)", name, gd, ge, gs, wd, we, ws)
			}
		}
		s := m.(metric.Sessioner).Session()
		want := inner.(metric.Sessioner).Session().(metric.Batcher).DistanceBatch(words[0], words[1:], nil)
		got := s.(metric.Batcher).DistanceBatch(words[0], words[1:], nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s DistanceBatch[%d]: %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	if q, b := tr.query.snap(), tr.build.snap(); q.n == [numKeys]int64{} || b.evals != int64(2*(len(words)-1)) {
		t.Fatalf("accumulators: query %v, build %+v", q.n, b)
	}
	if _, err := tr.wrap(metric.YujianBo()); err == nil {
		t.Fatal("wrapping a metric without the Staged+Sessioner shape succeeded")
	}
}

// TestReportLastLineIsTheSummary pins the output format: the last line
// is one JSON object with exactly correct, attempted, failed and metrics,
// and an infinite percentile still encodes.
func TestReportLastLineIsTheSummary(t *testing.T) {
	rep := newReport(workloads[0], 1, 1, false)
	rep.attempted, rep.correct = 3, true
	rep.metric("p99_ms", "ms", math.Inf(1), 3, "")
	rep.metric("qps", "1/s", 12.5, 3, "")
	rep.info("fail_frac", "ratio", 0, 3, "")
	var buf bytes.Buffer
	rep.write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
		t.Fatalf("summary keys: %v", out)
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 || metrics["qps"].Value != 12.5 || metrics["p99_ms"].Unit != "ms" {
		t.Fatalf("metrics: %v", metrics)
	}
}

// TestStreamIsPureFunctionOfSeed pins determinism of the generated inputs.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	a, b := genDict(5, 300), genDict(5, 300)
	for i := range a.ops {
		if !bytes.Equal(a.ops[i].body, b.ops[i].body) {
			t.Fatalf("op %d differs for the same seed", i)
		}
	}
	if c := genDict(6, 300); bytes.Equal(c.ops[0].body, a.ops[0].body) && bytes.Equal(c.ops[1].body, a.ops[1].body) {
		t.Fatal("another seed gave the same stream")
	}
}

// TestRunRejectsBadArguments pins the usage errors.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "dict", "--trace", "2"},
		{"--workload", "dict", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestEndToEndSegments pins the estimators: a slow burst inside one time
// slice moves neither qps, p50 nor p90; failed reads count as +Inf and
// contribute no answers; writes are kept apart.
func TestEndToEndSegments(t *testing.T) {
	start := time.Unix(0, 0)
	var ops []op
	var recs []record
	// 5 s of 1 ms reads, 3 ms ones from 3.0 to 3.5 s; one failed read; a
	// write every 100 ops.
	at := start
	for i := 0; at.Before(start.Add(5 * time.Second)); i++ {
		lat := time.Millisecond
		if d := at.Sub(start); d >= 3*time.Second && d < 3500*time.Millisecond {
			lat = 3 * time.Millisecond
		}
		o, r := knnOp("q"), record{status: 200, lat: lat}
		switch {
		case i%100 == 99:
			o = deleteOp(1)
		case i == 7:
			r.status = 500
		}
		at = at.Add(lat)
		r.end = at
		ops, recs = append(ops, o), append(recs, r)
	}
	st := endToEnd(ops, recs, at.Sub(start), nil)
	if math.Abs(st.qps-990) > 10 {
		t.Errorf("qps %.2f, want the unslowed 990/s", st.qps)
	}
	if st.p50 != 1 || st.p90 != 1 || st.p99 != 3 {
		t.Errorf("p50 %v, p90 %v, p99 %v ms; want 1, 1 and the whole run's 3", st.p50, st.p90, st.p99)
	}
	if st.writes != len(ops)/100 || st.writeP50 != 1 || st.answers != st.reads-1 || st.kept != timeSegments {
		t.Errorf("%d writes (p50 %v ms), %d answers of %d reads, %d slices kept", st.writes, st.writeP50, st.answers, st.reads, st.kept)
	}
}

// TestEndToEndLeavesOutStolenSlices pins the steal-aware medians: when
// host steal covers the first 6 of 10 slices and slows their reads, qps,
// p50 and p90 come from the other slices, and the whole run's p95 still
// sees the slow reads.
func TestEndToEndLeavesOutStolenSlices(t *testing.T) {
	start := time.Unix(0, 0)
	var ops []op
	var recs []record
	ticks := []tickSample{{at: start}}
	at := start
	for at.Before(start.Add(10 * time.Second)) {
		lat := time.Millisecond
		if at.Before(start.Add(6 * time.Second)) {
			lat = 2 * time.Millisecond
		}
		at = at.Add(lat)
		ops, recs = append(ops, knnOp("q")), append(recs, record{status: 200, lat: lat, end: at})
		if last := ticks[len(ticks)-1]; at.Sub(last.at) >= 100*time.Millisecond {
			stolen := uint64(0)
			if at.Before(start.Add(6 * time.Second)) {
				stolen = 2 + uint64(len(ticks)%3) // uneven, so slices differ
			}
			ticks = append(ticks, tickSample{at: at, steal: last.steal + stolen, total: last.total + 20})
		}
	}
	st := endToEnd(ops, recs, at.Sub(start), ticks)
	if st.kept != timeSegments/2 || st.p50 != 1 || st.p90 != 1 || math.Abs(st.qps-1000) > 10 {
		t.Errorf("kept %d slices, p50 %v, p90 %v ms, qps %.1f; want 5 and the unstolen 1, 1, 1000/s", st.kept, st.p50, st.p90, st.qps)
	}
	if st.p95 != 2 {
		t.Errorf("whole-run p95 %v ms, want the stolen slices' 2", st.p95)
	}
}
