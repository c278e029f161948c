package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"ced/internal/search"
	"ced/internal/serve"
	"ced/internal/shard"
)

// Client default tuning. The per-attempt timeout covers one HTTP round
// trip; the retry budget covers transient transport faults (connection
// refused/reset, truncated responses, 5xx) with exponential backoff.
const (
	DefaultTimeout = 2 * time.Second
	DefaultRetries = 2
	DefaultBackoff = 10 * time.Millisecond
	maxBackoff     = 250 * time.Millisecond
)

// ClientConfig tunes one shard client. The zero value gets the defaults
// above and a fresh http.Client; a coordinator shares one http.Client (and
// its connection pool) across all its replicas.
type ClientConfig struct {
	// Timeout bounds each attempt; <= 0 uses DefaultTimeout.
	Timeout time.Duration
	// Retries is the number of additional attempts after the first; < 0
	// means none, 0 uses DefaultRetries.
	Retries int
	// Backoff is the first retry delay, doubling per attempt up to a cap;
	// <= 0 uses DefaultBackoff.
	Backoff time.Duration
	// HTTPClient optionally shares a transport; nil allocates one.
	HTTPClient *http.Client
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	switch {
	case c.Retries < 0:
		c.Retries = 0
	case c.Retries == 0:
		c.Retries = DefaultRetries
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	return c
}

// Client speaks the shard transport to one slot of one shard server. Every
// call takes a context (the coordinator cancels hedged losers through it),
// applies the per-attempt timeout, and retries transient failures with
// exponential backoff. All operations are idempotent at the server —
// queries trivially, writes via coordinator-minted IDs — so retrying after
// an ambiguous failure (request applied, response lost) is safe.
type Client struct {
	base string // server base URL, no trailing slash
	slot int
	cfg  ClientConfig
}

// NewClient builds a client for slot idx of the shard server at baseURL.
func NewClient(baseURL string, slot int, cfg ClientConfig) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{base: baseURL, slot: slot, cfg: cfg.withDefaults()}
}

// Base returns the server base URL (health reporting).
func (c *Client) Base() string { return c.base }

// Slot returns the slot index this client addresses.
func (c *Client) Slot() int { return c.slot }

// errResponseTooLarge fails a response body longer than maxBodyBytes. The
// server would send the same body again, so it is not retried.
var errResponseTooLarge = fmt.Errorf("response body exceeds the %d MiB limit", maxBodyBytes>>20)

// do runs one transport call with retry: POST body (or GET when body is
// nil) to /shard/{slot}/{op}, decoding the JSON response into out. 4xx
// responses fail immediately as a serve.StatusError carrying the server's
// status, which a coordinator passes through to its own client, and an
// oversized response fails immediately too; transport errors, truncated
// bodies and 5xx retry up to the budget.
func (c *Client) do(ctx context.Context, method, op string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("remote: encoding %s request: %w", op, err)
		}
	}
	url := fmt.Sprintf("%s/shard/%d/%s", c.base, c.slot, op)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			delay := min(c.cfg.Backoff<<(attempt-1), maxBackoff)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
		}
		err := c.attempt(ctx, method, url, payload, out)
		if err == nil {
			return nil
		}
		var verdict *serve.StatusError
		if errors.As(err, &verdict) {
			return err // the server answered; retrying cannot change its mind
		}
		if errors.Is(err, errResponseTooLarge) {
			return fmt.Errorf("remote: %s %s: %w", op, c.base, err)
		}
		if ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("remote: %s %s after %d attempts: %w", op, c.base, c.cfg.Retries+1, lastErr)
}

// attempt runs a single bounded HTTP round trip.
func (c *Client) attempt(ctx context.Context, method, url string, payload []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(actx, method, url, rd)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's remaining deadline budget so the server clamps
	// its own work to it: without the header a shard keeps computing for a
	// coordinator that has already timed out. Stamped per attempt — a retry
	// carries the (smaller) budget that is actually left, and the per-attempt
	// timeout participates because actx already folds it in.
	if dl, ok := actx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1 // already exhausted: tell the server to fail fast
		}
		req.Header.Set(serve.BudgetHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return err // connection died mid-stream: retryable
	}
	if len(raw) > maxBodyBytes {
		return errResponseTooLarge
	}
	if resp.StatusCode >= 500 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, errorMessage(raw))
	}
	if resp.StatusCode >= 400 {
		return &serve.StatusError{Status: resp.StatusCode,
			Err: fmt.Errorf("shard server: %s (HTTP %d)", errorMessage(raw), resp.StatusCode)}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("truncated or malformed response: %w", err)
		}
	}
	return nil
}

// errorMessage extracts the server's error string from a response body.
func errorMessage(raw []byte) string {
	var er serve.ErrorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return er.Error
	}
	if len(raw) > 200 {
		raw = raw[:200]
	}
	return string(raw)
}

// Seed creates or wholesale replaces the slot with the given elements.
func (c *Client) Seed(ctx context.Context, metricName string, labelled bool, elems []shard.Element) error {
	return c.do(ctx, http.MethodPost, "seed",
		seedRequest{Metric: metricName, Labelled: labelled, Elements: elems}, nil)
}

// Query answers req against the slot: a k-NN request carries its pruning
// bound (the coordinator's running cross-cluster k-th-best distance,
// +Inf for none) across the wire, a radius request its radius.
func (c *Client) Query(ctx context.Context, q string, req search.Request) ([]shard.Hit, shard.Stats, error) {
	var resp queryResponse
	var err error
	if req.IsRadius() {
		err = c.do(ctx, http.MethodPost, "radius", radiusRequest{Query: q, Radius: req.Bound()}, &resp)
	} else {
		kr := knnRequest{Query: q, K: req.K()}
		if b := req.Bound(); !math.IsInf(b, 1) {
			kr.MaxDistance = &b
		}
		err = c.do(ctx, http.MethodPost, "knn", kr, &resp)
	}
	if err != nil {
		return nil, shard.Stats{}, err
	}
	return resp.Hits, shard.Stats{Computations: resp.Computations, Rejections: resp.Rejections}, nil
}

// Add applies a coordinator-minted write; applied is false for an
// idempotent re-delivery.
func (c *Client) Add(ctx context.Context, e shard.Element) (applied bool, size int, err error) {
	var resp mutateResponse
	err = c.do(ctx, http.MethodPost, "add", addRequest{ID: e.ID, Value: e.Value, Label: e.Label}, &resp)
	return resp.Applied, resp.Size, err
}

// Delete removes an element by ID; applied is false when it was not live.
func (c *Client) Delete(ctx context.Context, id uint64) (applied bool, size int, err error) {
	var resp mutateResponse
	err = c.do(ctx, http.MethodPost, "delete", deleteRequest{ID: id}, &resp)
	return resp.Applied, resp.Size, err
}

// Compact folds the slot's mutation overlay into its base index; size is
// the slot's live size, which compaction leaves as it was.
func (c *Client) Compact(ctx context.Context) (size int, err error) {
	var resp mutateResponse
	err = c.do(ctx, http.MethodPost, "compact", struct{}{}, &resp)
	return resp.Size, err
}

// Info fetches the slot's identity and live size (also the health probe).
func (c *Client) Info(ctx context.Context) (SlotInfo, error) {
	var resp SlotInfo
	err := c.do(ctx, http.MethodGet, "info", nil, &resp)
	return resp, err
}

// Dump fetches the slot's full live content (replica re-sync source).
func (c *Client) Dump(ctx context.Context) (labelled bool, elems []shard.Element, err error) {
	var resp dumpResponse
	err = c.do(ctx, http.MethodGet, "dump", nil, &resp)
	return resp.Labelled, resp.Elements, err
}
