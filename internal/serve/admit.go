package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// DefaultMaxQueueWait is how long an over-admission query waits for a slot
// before being shed, when Config.MaxQueueWait is unset. Short on purpose:
// under sustained overload a long queue only converts shed load into
// deadline-exceeded load with worse latency for everyone.
const DefaultMaxQueueWait = 100 * time.Millisecond

// DefaultRetryAfter is the Retry-After header value (seconds) sent with a
// 429 when Config.RetryAfter is unset.
const DefaultRetryAfter = 1

// ErrOverloaded is returned by Gate.Acquire when no execution slot freed up
// within the queue-wait budget; Gate.Fail answers it with 429 +
// Retry-After.
var ErrOverloaded = errors.New("serve: overloaded, try again later")

// StatusError is an error that carries the HTTP status it answers with: a
// caller's mistake (400), or a shard server's own 4xx verdict that a
// coordinator passes through unchanged.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// badRequest tags err as the caller's mistake.
func badRequest(err error) error {
	return &StatusError{Status: http.StatusBadRequest, Err: err}
}

// Gate is a server's front door: admission control for its query
// endpoints, the lifetime counts of their cancelled and deadline-exceeded
// outcomes, and the one error→status map every endpoint answers through.
// Admission is a fixed pool of execution slots plus a bounded queue wait:
// requests that cannot get a slot in time are shed — the server's answer
// to saturating load is a fast 429, not an unbounded queue that converts
// overload into timeouts for every caller. A gate without slots (NewGate
// with maxInFlight <= 0) admits everything at no cost.
type Gate struct {
	slots      chan struct{} // nil: admission off
	maxWait    time.Duration
	retryAfter int
	shed       atomic.Uint64
	cancelled  atomic.Uint64
	deadline   atomic.Uint64
}

// NewGate returns a gate admitting maxInFlight concurrent holders, shedding
// after maxWait (<= 0 uses DefaultMaxQueueWait). retryAfter (seconds) is
// the Retry-After hint for shed requests (<= 0 uses DefaultRetryAfter).
// maxInFlight <= 0 turns admission off; the gate still counts outcomes and
// maps errors.
func NewGate(maxInFlight int, maxWait time.Duration, retryAfter int) *Gate {
	if maxWait <= 0 {
		maxWait = DefaultMaxQueueWait
	}
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	g := &Gate{maxWait: maxWait, retryAfter: retryAfter}
	if maxInFlight > 0 {
		g.slots = make(chan struct{}, maxInFlight)
	}
	return g
}

// Acquire claims an execution slot, waiting up to the queue-wait budget.
// It returns ErrOverloaded when the wait expires (the request is shed) and
// ctx's error when the caller gave up while queued. Every nil return must
// be paired with Release.
func (g *Gate) Acquire(ctx context.Context) error {
	if g.slots == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	timer := time.NewTimer(g.maxWait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-timer.C:
		g.shed.Add(1)
		return ErrOverloaded
	case <-ctx.Done():
		// The caller vanished while queued: its own context error, not a
		// shed (nobody is left to see a 429).
		return ctx.Err()
	}
}

// Release returns a slot claimed by a nil-error Acquire.
func (g *Gate) Release() {
	if g.slots != nil {
		<-g.slots
	}
}

// Query wraps a query endpoint: admission, then the cancellable query
// context (client disconnect, server shutdown, BudgetHeader deadline) the
// handler runs under. Health, mutation and snapshot endpoints stay
// unwrapped — health checks and drains must succeed exactly when the
// server is saturated.
func (g *Gate) Query(h func(ctx context.Context, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := g.Acquire(r.Context()); err != nil {
			g.Fail(w, err)
			return
		}
		defer g.Release()
		ctx, cancel := RequestContext(r)
		defer cancel()
		h(ctx, w, r)
	}
}

// Fail answers a failed request with the status its error carries: shed
// load is 429 with a Retry-After hint, a client that vanished is 499, an
// exhausted deadline budget is 504, a StatusError answers its own status,
// and any other error is a fault behind the server — a shard with no
// usable replica — answered 502, so clients and load balancers can tell
// "back off" from "you asked wrong" from "the cluster is hurt". The
// cancellation outcomes are counted for /healthz.
func (g *Gate) Fail(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	var se *StatusError
	switch {
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(g.retryAfter))
	case errors.Is(err, context.Canceled):
		g.cancelled.Add(1)
		status = StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		g.deadline.Add(1)
		status = http.StatusGatewayTimeout
	case errors.As(err, &se):
		status = se.Status
	}
	WriteError(w, status, err)
}

// OverloadInfo is the /healthz overload block.
type OverloadInfo struct {
	// AdmissionEnabled reports whether a max-in-flight gate is configured.
	AdmissionEnabled bool `json:"admission_enabled"`
	// MaxInFlight is the configured concurrency bound (0 when disabled).
	MaxInFlight int `json:"max_in_flight"`
	// InFlight is the number of query requests currently holding a slot.
	InFlight int `json:"in_flight"`
	// Shed counts requests rejected with 429 over the server's lifetime.
	Shed uint64 `json:"shed"`
	// Cancelled counts queries that ended in context.Canceled (client
	// disconnect, hedge-loser cancellation).
	Cancelled uint64 `json:"cancelled"`
	// DeadlineExceeded counts queries that ran out of deadline budget.
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
}

// Overload returns the gate's admission state and lifetime counters.
func (g *Gate) Overload() OverloadInfo {
	return OverloadInfo{
		AdmissionEnabled: g.slots != nil,
		MaxInFlight:      cap(g.slots),
		InFlight:         len(g.slots),
		Shed:             g.shed.Load(),
		Cancelled:        g.cancelled.Load(),
		DeadlineExceeded: g.deadline.Load(),
	}
}
