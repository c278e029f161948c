// Command perfbench is the repository's end-to-end benchmark. For one
// workload it generates the inputs from a seed, hosts the program on
// loopback listeners in this process, drives it from one closed-loop HTTP
// connection, checks the answers against a linear-scan oracle and prints
// every metric by name with its unit and sample count. The last line of
// standard output is a JSON summary.
//
//	perfbench --workload dict|digits|cluster-spell --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: it measures an untraced half and a traced half of the same
// stream and prints the per-layer metrics and the layer table. NOTES.md
// records why each workload exists and how noisy each metric is.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minTailReads is the read count at which each time slice's p90, and the
// whole run's p99, have ten samples beyond them. A run whose time is up
// with fewer reads keeps going, up to twice its time.
const minTailReads = 1000

// healthEvery is how often (in ops) the traced run samples /healthz.
const healthEvery = 64

// tickEvery is how often the measured phase samples the host's steal
// counters, which give each time slice its steal share.
const tickEvery = 100 * time.Millisecond

// quiesce is the pause before the end-of-phase heap reading: about ten
// times the longest dict shard compaction.
const quiesce = 200 * time.Millisecond

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dict, digits or cluster-spell")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload dict|digits|cluster-spell --seed N --seconds S --trace 0|1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(ctx, w, *seed, *seconds)
	} else {
		rep, err = runPlain(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.write(stdout)
	return 0
}

// setUp starts the program and returns once /healthz answers 200, with
// the time from handing it the corpus.
func setUp(ctx context.Context, w *workload, in *inputs, tr *tracer) (*system, time.Duration, error) {
	start := time.Now()
	sys, err := w.start(in, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("starting the program: %w", err)
	}
	c := newClient(sys.url, nil)
	defer c.close()
	if err := c.waitHealthy(ctx); err != nil {
		return nil, 0, errors.Join(err, sys.close())
	}
	return sys, time.Since(start), nil
}

// fingerprint sums the work reported by the warm-up window's reads. On a
// deterministic workload it repeats exactly for a seed.
type fingerprint struct {
	reads int
	comps int64
	rej   [4]int64
}

func fingerprintOf(ops []op, recs []record) fingerprint {
	var fp fingerprint
	for i := range ops {
		if ops[i].kind.read() && recs[i].status == http.StatusOK {
			fp.reads++
			fp.comps += int64(recs[i].comps)
			for s, n := range recs[i].rej {
				fp.rej[s] += n
			}
		}
	}
	return fp
}

func (fp fingerprint) String() string {
	return fmt.Sprintf("reads=%d computations=%d rejections[length,edit,heuristic,exact]=%v", fp.reads, fp.comps, fp.rej)
}

// phase is one pass over the op stream: the warm-up window, then the
// timed ops.
type phase struct {
	n        int // ops sent, warm-up included
	elapsed  time.Duration
	cpu      time.Duration
	heap     uint64
	extended bool
	steal    float64      // host steal share of all CPU time during the timed ops
	ticks    []tickSample // the host's counters every tickEvery of the timed ops
	fp       fingerprint
	// Traced phases also sample /healthz and the build-path evaluations.
	h0, h1         healthSample
	pending        []float64
	build0, build1 buildSnap
}

// drive sends the warm-up window and then ops until dur has passed (and
// at least minReads reads were timed, up to 2×dur).
func drive(ctx context.Context, w *workload, in *inputs, sys *system, recs []record, dur time.Duration, tr *tracer, minReads int, measureHeap bool) (*phase, error) {
	var wrap func(http.RoundTripper) http.RoundTripper
	if tr != nil {
		wrap = tr.root
	}
	c := newClient(sys.url, wrap)
	defer c.close()
	for i := 0; i < w.warm; i++ {
		c.do(ctx, i, &in.ops[i], &recs[i])
	}
	ph := &phase{fp: fingerprintOf(in.ops[:w.warm], recs[:w.warm])}
	var hc *client
	if tr != nil {
		hc = newClient(sys.url, nil)
		defer hc.close()
		var err error
		if ph.h0, err = sys.health(ctx, hc); err != nil {
			return nil, err
		}
		ph.build0 = tr.build.snap()
	}
	i, reads := w.warm, 0
	cpu0 := cpuTime()
	ph.ticks = append(ph.ticks, sampleTicks())
	start := ph.ticks[0].at
	deadline, hardStop := start.Add(dur), start.Add(2*dur)
	for i < len(in.ops) {
		now := time.Now()
		if now.After(deadline) && (reads >= minReads || now.After(hardStop)) {
			break
		}
		if now.Sub(ph.ticks[len(ph.ticks)-1].at) >= tickEvery {
			ph.ticks = append(ph.ticks, sampleTicks())
		}
		c.do(ctx, i, &in.ops[i], &recs[i])
		if in.ops[i].kind.read() {
			reads++
		}
		i++
		if hc != nil && (i-w.warm)%healthEvery == 0 {
			h, err := sys.health(ctx, hc)
			if err != nil {
				return nil, err
			}
			for _, p := range h.pending {
				ph.pending = append(ph.pending, float64(p))
			}
		}
	}
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.ticks = append(ph.ticks, sampleTicks())
	ph.steal = stealShare(ph.ticks[0], ph.ticks[len(ph.ticks)-1])
	ph.n = i
	ph.extended = ph.elapsed > dur+time.Second
	if measureHeap {
		// A background compaction still building would count its
		// half-built index; give it time to swap in first.
		time.Sleep(quiesce)
		ph.heap = liveHeap()
	}
	if tr != nil {
		ph.build1 = tr.build.snap()
		var err error
		if ph.h1, err = sys.health(ctx, hc); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(ctx context.Context, w *workload, seed int64, seconds int) (*report, error) {
	in := w.gen(seed, w.warm+seconds*w.rate)
	// Records are allocated before the heap baseline so the benchmark's own
	// bookkeeping does not count as the program's heap.
	recs := make([]record, len(in.ops))
	var setups []float64
	var sys *system
	var heap0 uint64
	for i := 0; i < w.setups; i++ {
		last := i == w.setups-1
		if last {
			heap0 = liveHeap()
		} else {
			runtime.GC()
		}
		s, d, err := setUp(ctx, w, in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if last {
			sys = s
		} else if err := s.close(); err != nil {
			return nil, err
		}
	}
	ph, err := drive(ctx, w, in, sys, recs, time.Duration(seconds)*time.Second, nil, minTailReads, true)
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	chk := newChecker(w, in)
	chk.replay(in.ops, recs, ph.n)

	rep := newReport(w, seed, seconds, false)
	rep.attempted = ph.n
	rep.failed = chk.failed
	rep.correct = chk.failed == 0
	rep.msgs = chk.msgs

	e2e := endToEnd(in.ops[w.warm:ph.n], recs[w.warm:ph.n], ph.elapsed, ph.ticks)
	segs := fmt.Sprintf("the %d of %d time segments with the least host steal", e2e.kept, timeSegments)
	rep.metric("setup_s", "s", median(setups), len(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	rep.metric("qps", "1/s", e2e.qps, e2e.answers, fmt.Sprintf("median answers/s of %s, %.2fs", segs, ph.elapsed.Seconds()))
	rep.metric("p50_ms", "ms", e2e.p50, e2e.reads, "reads; median p50 of "+segs)
	rep.metric("p90_ms", "ms", e2e.p90, e2e.reads, "reads; median p90 of "+segs)
	rep.metric("write_p50_ms", "ms", e2e.writeP50, e2e.writes, "/add and /delete in the same segments")
	rep.metric("cpu_ms_per_req", "ms", ms(ph.cpu)/float64(ph.n-w.warm), ph.n-w.warm, "user+sys over the measured phase")
	rep.metric("heap_mb", "MiB", float64(int64(ph.heap)-int64(heap0))/(1<<20), 1, "live heap over the pre-set-up baseline")
	tailNote := "reads, whole run"
	if e2e.reads < minTailReads {
		tailNote = fmt.Sprintf("fewer than %d reads: under ten beyond p99", minTailReads)
	}
	rep.info("p95_ms", "ms", e2e.p95, e2e.reads, "reads, whole run")
	rep.info("p99_ms", "ms", e2e.p99, e2e.reads, tailNote)
	rep.info("fail_frac", "ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted, "also the JSON's failed/attempted")
	rep.lines = append(rep.lines,
		fmt.Sprintf("fingerprint (warm-up window of %d ops): %s", w.warm, ph.fp),
		"core.build_evals: traced runs only (the untraced program is handed the plain metric)",
		fmt.Sprintf("oracle: %d of %d read answers checked against a linear scan, every write checked, %d failed ops", chk.checked, chk.reads, chk.failed),
		fmt.Sprintf("host steal during the measured phase: %.1f%% of CPU time, %.1f%% in the %d time segments the medians use", 100*ph.steal, 100*e2e.keptSteal, e2e.kept))
	if ph.extended {
		rep.lines = append(rep.lines, fmt.Sprintf("measured phase extended to %.2fs to reach %d reads", ph.elapsed.Seconds(), minTailReads))
	}
	return rep, nil
}

// runTraced measures an untraced and a traced pass over the same stream
// (each half the run's seconds) and reports the per-layer metrics.
func runTraced(ctx context.Context, w *workload, seed int64, seconds int) (*report, error) {
	in := w.gen(seed, w.warm+seconds*w.rate)
	half := time.Duration(seconds) * time.Second / 2
	inside, pair := calibrateTimer()

	recsA := make([]record, len(in.ops))
	sysA, _, err := setUp(ctx, w, in, nil)
	if err != nil {
		return nil, err
	}
	phA, err := drive(ctx, w, in, sysA, recsA, half, nil, 0, false)
	if err = errors.Join(err, sysA.close()); err != nil {
		return nil, err
	}

	tr := newTracer(inside, pair)
	b0 := tr.build.snap()
	sys, setupDur, err := setUp(ctx, w, in, tr)
	if err != nil {
		return nil, err
	}
	setupBuild := tr.build.snap().sub(b0)
	recs := make([]record, len(in.ops))
	ph, err := drive(ctx, w, in, sys, recs, half, tr, 0, false)
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	if err := sys.close(); err != nil {
		return nil, err
	}
	spansPath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeSpans(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	chkA := newChecker(w, in)
	chkA.replay(in.ops, recsA, phA.n)
	chk := newChecker(w, in)
	chk.dists = chkA.dists // reuse digits' oracle scans
	chk.replay(in.ops, recs, ph.n)

	rows, err := layerTable(ctx, seed, inside, pair)
	if err != nil {
		return nil, fmt.Errorf("layer table: %w", err)
	}

	rep := newReport(w, seed, seconds, true)
	rep.attempted = phA.n + ph.n
	rep.failed = chkA.failed + chk.failed
	rep.correct = rep.failed == 0
	rep.msgs = append(chkA.msgs, chk.msgs...)
	rep.layers = rows
	rep.lines = append(rep.lines,
		fmt.Sprintf("timer: %.1f ns inside a timed region (subtracted per timed call), %.1f ns per Now/Since pair", inside, pair),
		"spans: "+spansPath,
		fmt.Sprintf("fingerprint untraced (warm-up window of %d ops): %s", w.warm, phA.fp),
		fmt.Sprintf("fingerprint traced   (warm-up window of %d ops): %s", w.warm, ph.fp),
		fmt.Sprintf("core.build_evals=%d (traced set-up, %.3fs)", setupBuild.evals, setupDur.Seconds()),
		fmt.Sprintf("oracle: untraced %d of %d read answers checked, traced %d of %d, every write checked, %d failed ops",
			chkA.checked, chkA.reads, chk.checked, chk.reads, rep.failed))
	if w.deterministic && phA.fp != ph.fp {
		rep.correct = false
		rep.lines = append(rep.lines, "FAIL: the traced fingerprint differs from the untraced one: the forwarding metric changed the code path")
	}
	qpsA := answersOf(in, recsA, w.warm, phA.n) / phA.elapsed.Seconds()
	perLayer(rep, layerInput{
		w: w, in: in, recs: recs, ph: ph, tr: tr,
		setupBuild: setupBuild, setupEngine: sys.build,
		qpsUntraced: qpsA, rows: rows,
	})
	return rep, nil
}

// answersOf counts the successful read answers of ops [lo, hi).
func answersOf(in *inputs, recs []record, lo, hi int) float64 {
	n := 0
	for i := lo; i < hi; i++ {
		if in.ops[i].kind.read() && recs[i].status == http.StatusOK {
			n += len(in.ops[i].queries)
		}
	}
	return float64(n)
}

// report is one run's output.
type report struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool
	lines   []string
	metrics []metricOut // the JSON summary's metrics, in print order
	infos   []metricOut // printed only
	layers  []layerRow
	msgs    []string

	correct           bool
	attempted, failed int
}

type metricOut struct {
	name, unit string
	value      float64
	samples    int
	note       string
}

func newReport(w *workload, seed int64, seconds int, traced bool) *report {
	return &report{w: w, seed: seed, seconds: seconds, traced: traced}
}

func (r *report) metric(name, unit string, v float64, samples int, note string) {
	r.metrics = append(r.metrics, metricOut{name, unit, v, samples, note})
}

func (r *report) info(name, unit string, v float64, samples int, note string) {
	r.infos = append(r.infos, metricOut{name, unit, v, samples, note})
}

func (r *report) write(w io.Writer) {
	trace := 0
	if r.traced {
		trace = 1
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", r.w.name, r.seed, r.seconds, trace)
	fmt.Fprintf(w, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, m := range r.msgs {
		fmt.Fprintln(w, "FAIL:", m)
	}
	fmt.Fprintf(w, "%-28s %14s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range append(append([]metricOut(nil), r.metrics...), r.infos...) {
		fmt.Fprintf(w, "%-28s %14.6g %-6s %8d  %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
	if len(r.layers) > 0 {
		printLayerTable(w, r.layers)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		v := m.value
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1):
			v = math.MaxFloat64 // a failed request in the percentile
		}
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats, strings and bools always encode
	}
	fmt.Fprintln(w, string(b))
}
