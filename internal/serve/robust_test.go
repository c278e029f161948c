package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRequestContextBudget pins the header-to-deadline translation: no
// header means no deadline, a sane budget lands near its value, an
// extravagant one clamps to MaxBudget, and garbage or exhausted budgets
// fail fast instead of failing open.
func TestRequestContextBudget(t *testing.T) {
	deadlineIn := func(header string) (time.Duration, bool) {
		r := httptest.NewRequest(http.MethodPost, "/knn", nil)
		if header != "" {
			r.Header.Set(BudgetHeader, header)
		}
		ctx, cancel := RequestContext(r)
		defer cancel()
		dl, ok := ctx.Deadline()
		if !ok {
			return 0, false
		}
		return time.Until(dl), true
	}

	if _, ok := deadlineIn(""); ok {
		t.Error("no budget header must impose no deadline")
	}
	if d, ok := deadlineIn("250"); !ok || d <= 0 || d > 250*time.Millisecond {
		t.Errorf("250ms budget produced deadline %v (ok=%v)", d, ok)
	}
	if d, ok := deadlineIn("999999999"); !ok || d > MaxBudget {
		t.Errorf("extravagant budget was not clamped to MaxBudget: %v (ok=%v)", d, ok)
	}
	for _, h := range []string{"garbage", "-5", "0", "1.5"} {
		if d, ok := deadlineIn(h); !ok || d > 50*time.Millisecond {
			t.Errorf("budget %q must fail fast, got deadline %v (ok=%v)", h, d, ok)
		}
	}
}

// TestHandlerCancellationStatus pins the error-to-status mapping on the
// full HTTP surface: a client that vanished is 499, an exhausted deadline
// budget is 504, and each outcome lands in its /healthz overload counter.
func TestHandlerCancellationStatus(t *testing.T) {
	e := newTestEngine(t, "laesa")
	h := NewHandler(e)

	send := func(ctx context.Context) int {
		r := httptest.NewRequest(http.MethodPost, "/knn", strings.NewReader(`{"query":"casa","k":2}`))
		r = r.WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code
	}

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if code := send(gone); code != StatusClientClosedRequest {
		t.Fatalf("vanished client got %d, want %d", code, StatusClientClosedRequest)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if code := send(expired); code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline got %d, want %d", code, http.StatusGatewayTimeout)
	}

	oi := e.Info().Overload
	if oi.Cancelled == 0 || oi.DeadlineExceeded == 0 {
		t.Fatalf("overload counters did not move: %+v", oi)
	}
	// A healthy query still answers 200 afterwards.
	if code := send(context.Background()); code != http.StatusOK {
		t.Fatalf("live query after cancellations got %d", code)
	}
}

// TestHandlerShedsWhenSaturated drives the admission gate through the HTTP
// surface: with the single slot held, queries shed with 429 + Retry-After
// while /healthz keeps answering, and releasing the slot restores service.
func TestHandlerShedsWhenSaturated(t *testing.T) {
	m := newTestEngine(t, "linear").m // reuse metric plumbing
	e, err := New(testCorpus, testLabels, m, Config{
		Algorithm: "linear", CacheSize: 16,
		MaxInFlight: 1, MaxQueueWait: time.Millisecond, RetryAfter: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(e)

	// Occupy the only slot, as a slow in-flight query would.
	if err := e.Gate().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/knn", strings.NewReader(`{"query":"casa","k":2}`)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated query got %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}

	// Health checks must succeed exactly when the server is saturated.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz gated out with %d while saturated", rec.Code)
	}

	oi := e.Info().Overload
	if !oi.AdmissionEnabled || oi.MaxInFlight != 1 || oi.InFlight != 1 || oi.Shed == 0 {
		t.Fatalf("overload info = %+v", oi)
	}

	e.Gate().Release()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/knn", strings.NewReader(`{"query":"casa","k":2}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query after release got %d", rec.Code)
	}
}

// TestGateSemantics pins the admission primitive itself: a caller that
// gives up while queued gets its own context error (not ErrOverloaded, and
// not counted as a shed — nobody is left to read the 429), the queue wait
// sheds on expiry, and a gate with admission off admits everything for
// free.
func TestGateSemantics(t *testing.T) {
	g := NewGate(1, 5*time.Millisecond, 3)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second acquire returned %v, want ErrOverloaded", err)
	}
	if shed := g.Overload().Shed; shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Acquire(gone); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	if shed := g.Overload().Shed; shed != 1 {
		t.Fatalf("a cancelled waiter must not count as shed: %d", shed)
	}

	g.Release()
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.Release()

	disabled := NewGate(0, 0, 0)
	for i := 0; i < 100; i++ {
		if err := disabled.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	disabled.Release()
	if oi := disabled.Overload(); oi.AdmissionEnabled || oi.MaxInFlight != 0 || oi.InFlight != 0 {
		t.Fatalf("maxInFlight <= 0 must disable admission: %+v", oi)
	}
}
