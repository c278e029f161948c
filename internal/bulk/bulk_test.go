package bulk

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"ced/internal/metric"
)

func randomStrings(rng *rand.Rand, n, maxLen int) [][]rune {
	out := make([][]rune, n)
	alphabet := []rune("acgt")
	for i := range out {
		s := make([]rune, 1+rng.Intn(maxLen))
		for j := range s {
			s[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = s
	}
	return out
}

// Fan with sessions must produce the same values as direct metric calls,
// for every worker count, with both a session-capable and a plain metric.
func TestFanMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := randomStrings(rng, 60, 12)
	q := []rune("acgtacgt")
	for _, m := range []metric.Metric{metric.Contextual(), metric.Levenshtein(), metric.YujianBo()} {
		want := make([]float64, len(data))
		for i, d := range data {
			want[i] = m.Distance(q, d)
		}
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			got := make([]float64, len(data))
			New(m).Fan(len(data), workers, func(s metric.Metric, i int) {
				got[i] = s.Distance(q, data[i])
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: Fan[%d] = %v, direct %v", m.Name(), workers, i, got[i], want[i])
				}
			}
		}
	}
}

// Sessions minted for a Sessioner metric must be private per worker: the
// fan hands the same session only to one goroutine at a time.
func TestFanSessionConfinement(t *testing.T) {
	ev := New(confineMetric{})
	var active atomic.Int32
	ev.FanWorker(64, 4, func(s metric.Metric, w, i int) {
		cs := s.(*confineSession)
		if !cs.busy.CompareAndSwap(false, true) {
			t.Error("session used by two goroutines at once")
		}
		active.Add(1)
		s.Distance(nil, nil)
		active.Add(-1)
		cs.busy.Store(false)
	})
	if n := active.Load(); n != 0 {
		t.Fatalf("%d workers still active after fan returned", n)
	}
}

func TestFanZeroItems(t *testing.T) {
	ev := New(metric.Levenshtein())
	called := false
	ev.Fan(0, 4, func(metric.Metric, int) { called = true })
	if called {
		t.Fatal("Fan(0, ...) must not invoke fn")
	}
}

func TestSessionReleaseRecycles(t *testing.T) {
	ev := New(metric.Contextual())
	s := ev.Session()
	if s == nil {
		t.Fatal("nil session")
	}
	ev.Release(s)
	// A plain (sessionless) metric hands itself out. dE and dC are both
	// Sessioners now, so a stub stands in for the plain case.
	plain := plainMetric{}
	ev = New(plain)
	if got := ev.Session(); got != plain {
		t.Fatalf("plain metric session = %v, want the metric itself", got)
	}
}

// plainMetric is a metric without a Session method: the Evaluator must hand
// it out directly.
type plainMetric struct{}

func (plainMetric) Name() string                 { return "plain" }
func (plainMetric) Distance(a, b []rune) float64 { return float64(len(a) + len(b)) }

// confineMetric mints sessions that detect concurrent use.
type confineMetric struct{}

func (confineMetric) Name() string                 { return "confine" }
func (confineMetric) Distance(a, b []rune) float64 { return 0 }
func (confineMetric) Session() metric.Metric       { return &confineSession{} }

type confineSession struct{ busy atomic.Bool }

func (s *confineSession) Name() string                 { return "confine" }
func (s *confineSession) Distance(a, b []rune) float64 { return 0 }

// FanBatch must produce values bit-identical to direct per-pair metric
// calls, for every worker count, with batch-capable sessions (dC, dE), a
// session-only metric, and a plain metric.
func TestFanBatchMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := randomStrings(rng, 777, 14) // > fanBatchBlock so blocks split
	q := []rune("acgtacgtacgt")
	for _, m := range []metric.Metric{metric.Contextual(), metric.Levenshtein(), metric.YujianBo(), plainMetric{}} {
		want := make([]float64, len(data))
		for i, d := range data {
			want[i] = m.Distance(q, d)
		}
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			got := make([]float64, len(data))
			New(m).FanBatch(q, len(data), workers, func(i int) []rune { return data[i] }, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: FanBatch[%d] = %v, direct %v", m.Name(), workers, i, got[i], want[i])
				}
			}
		}
	}
}
