package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ced/internal/blob"
	"ced/internal/metric"
)

// crashFixture holds the two consistent corpus states a killed save must
// resolve to: A is the last durable snapshot, B the corpus the dying save
// was capturing.
type crashFixture struct {
	m        metric.Metric
	store    *blob.MemStore // holds snapshot A (seq 1)
	manifest *Manifest      // manifest of A
	setB     *Set           // in-memory corpus after post-A mutations
	answersA string
	answersB string
	probes   []string
}

func newCrashFixture(t *testing.T) *crashFixture {
	t.Helper()
	ctx := context.Background()
	m := metric.Contextual()
	corpus := []string{
		"casa", "cosa", "caso", "masa", "pasa", "queso", "gato", "gatos",
		"pato", "plato", "perro", "pero", "libro", "litro", "carta", "corta",
	}
	labels := make([]int, len(corpus))
	for i := range labels {
		labels[i] = i % 3
	}
	s := newTestSet(t, corpus, labels, 4)
	probes := []string{"casa", "gato", "libro", "carta", "zzz"}

	store := blob.NewMemStore()
	sv := NewSaver(store)
	if _, err := sv.Save(ctx, s); err != nil {
		t.Fatal(err)
	}
	man, err := fetchManifest(ctx, store, manifestKey(1))
	if err != nil {
		t.Fatal(err)
	}
	fx := &crashFixture{m: m, store: store, manifest: man, probes: probes}
	fx.answersA = answersOf(s, probes)

	// Post-A mutations: adds and deletes across shards, plus a compaction
	// so the dying save also moves base objects, not just overlays.
	for i, w := range []string{"nuevo", "viejo", "rojo", "verde", "azul"} {
		s.Add(w, i%3)
	}
	s.Delete(3)
	s.Delete(7)
	s.Compact()
	s.Add("final", 1)
	fx.setB = s
	fx.answersB = answersOf(s, probes)
	if fx.answersA == fx.answersB {
		t.Fatal("fixture corpora A and B answer identically; differential is vacuous")
	}
	return fx
}

func (fx *crashFixture) loadCfg() Config {
	return Config{
		Metric:    fx.m,
		Build:     testBuilder(fx.m, 8, 42),
		Algorithm: "laesa",
		Workers:   2,
	}
}

// saver returns a fresh Saver over st that believes (correctly) snapshot
// A was its last save — the state a long-running engine is in when the
// crash-bound save begins.
func (fx *crashFixture) saver(st blob.Store) *Saver {
	sv := NewSaver(st)
	sv.Attach(fx.manifest)
	return sv
}

// requireConsistent restarts on st and requires the loaded set to answer
// bit-identically to corpus A or corpus B — never a hybrid, never an
// error. Returns which ("A" or "B").
func (fx *crashFixture) requireConsistent(t *testing.T, st blob.Store) string {
	t.Helper()
	loaded, _, err := LoadFromStore(context.Background(), st, fx.loadCfg())
	if err != nil {
		t.Fatalf("restart failed to load: %v", err)
	}
	got := answersOf(loaded, fx.probes)
	switch got {
	case fx.answersA:
		return "A"
	case fx.answersB:
		return "B"
	}
	t.Fatalf("restarted set is a hybrid:\ngot:\n%s\nA:\n%s\nB:\n%s", got, fx.answersA, fx.answersB)
	return ""
}

// TestCrashRestartDifferential kills the save of corpus B at every store
// operation it performs — Put failing cleanly, Put tearing the object
// mid-write, Delete failing during GC — and requires every resulting
// store state to restart into exactly corpus A or exactly corpus B.
func TestCrashRestartDifferential(t *testing.T) {
	ctx := context.Background()
	fx := newCrashFixture(t)

	// Dry run to learn how many ops a full save of B performs.
	dry := blob.NewFaultStore(fx.store.Clone())
	if _, err := fx.saver(dry).Save(ctx, fx.setB); err != nil {
		t.Fatalf("dry-run save: %v", err)
	}
	puts, _, _, deletes := dry.Counts()
	if puts < 3 {
		t.Fatalf("dry-run save made only %d puts; fixture too small", puts)
	}
	fx.requireConsistent(t, dry)

	sawA, sawB := false, false
	for n := 1; n <= puts; n++ {
		for _, tear := range []bool{false, true} {
			name := fmt.Sprintf("put%d", n)
			if tear {
				name += "-torn"
			}
			st := fx.store.Clone()
			fs := blob.NewFaultStore(st)
			fs.FailPut(n, tear)
			if _, err := fx.saver(fs).Save(ctx, fx.setB); err == nil {
				t.Fatalf("%s: save survived its injected fault", name)
			}
			switch fx.requireConsistent(t, st) {
			case "A":
				sawA = true
			case "B":
				sawB = true
			}
		}
	}
	if !sawA {
		t.Error("no fault point ever rolled back to corpus A")
	}
	if sawB {
		// Every Put fault fires before or at the manifest publish, so the
		// commit point was never reached.
		t.Error("a failed save still published corpus B")
	}

	// GC faults fire after the commit point: the save reports success and
	// a restart sees corpus B.
	for n := 1; n <= deletes; n++ {
		st := fx.store.Clone()
		fs := blob.NewFaultStore(st)
		fs.FailDelete(n)
		if _, err := fx.saver(fs).Save(ctx, fx.setB); err != nil {
			t.Fatalf("gc-delete%d: save failed: %v", n, err)
		}
		if got := fx.requireConsistent(t, st); got != "B" {
			t.Fatalf("gc-delete%d: restart loaded %s, want B", n, got)
		}
	}
}

// TestCrashRestartDifferentialHTTP replays a slice of the differential
// through the real HTTP transport: the object server starts answering
// persistent 500s at the Nth request, the save dies through the client's
// retry budget, the server heals, and the restart must land on A or B.
func TestCrashRestartDifferentialHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback HTTP differential")
	}
	ctx := context.Background()
	fx := newCrashFixture(t)

	// Mirror snapshot A into a mem store served over HTTP.
	mirror := fx.store.Clone()
	var reqs atomic.Int64
	failFrom := atomic.Int64{}
	h := blob.Handler(mirror)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f := failFrom.Load(); f > 0 && reqs.Add(1) >= f {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	for _, n := range []int64{1, 2, 4, 7} {
		st := blob.NewHTTPStore(srv.URL, blob.HTTPConfig{
			Timeout: 2 * time.Second, Retries: 1, RetryBase: time.Millisecond,
		})
		reqs.Store(0)
		failFrom.Store(n)
		_, err := fx.saver(st).Save(ctx, fx.setB)
		failFrom.Store(0)
		if err == nil {
			// The outage began past this save's request count; with the
			// store healed the snapshot must read back as B.
			if got := fx.requireConsistent(t, st); got != "B" {
				t.Fatalf("fail-from-%d: committed save loads %s", n, got)
			}
			continue
		}
		if got := fx.requireConsistent(t, st); got != "A" {
			t.Fatalf("fail-from-%d: failed save loads %s, want A", n, got)
		}
	}
}
