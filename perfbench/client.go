package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// opKind is one request type of a workload's op stream.
type opKind uint8

const (
	opKNN opKind = iota
	opClassify
	opRadius
	opAdd
	opDelete
)

func (k opKind) read() bool { return k <= opRadius }

var opPaths = [...]string{"/knn", "/classify/batch", "/radius", "/add", "/delete"}

// op is one generated request. The op stream of a run is a pure function
// of the seed; the program sees only the encoded body.
type op struct {
	kind    opKind
	body    []byte
	queries []string // knn/radius: one query; classify: the batch
	value   string   // add
	label   int      // add (labelled corpora)
	id      uint64   // add: the ID the program must mint; delete: target
}

// maxHits is the number of answer elements a record keeps inline: k=3
// neighbours, a 4-digit classification batch, or the first hits of a
// radius answer (whose full ID set is kept as a digest).
const maxHits = 4

// hit is one answer element: a neighbour (id, distance), plus the label
// for classification.
type hit struct {
	id    uint64
	dist  float64
	label int
}

// record is what the client observed for one op. Records are fixed-size
// and preallocated, so the benchmark's own heap does not grow with the
// number of ops a run completes.
type record struct {
	status   int // HTTP status; 0 when the transport failed
	end      time.Time
	lat      time.Duration
	comps    int
	rej      [4]int64
	engineMS float64
	nhits    int
	hits     [maxHits]hit
	digest   uint64 // radius: sum of hitDigest over every hit
	id       uint64 // add/delete: the ID in the response
	size     int    // add/delete: live size in the response
	err      string
}

// The benchmark's own view of the JSON API: the documented fields it
// reads, decoded leniently so added fields cannot break it.
type (
	neighborJSON struct {
		Index    uint64  `json:"index"`
		Value    string  `json:"value"`
		Distance float64 `json:"distance"`
	}
	metaJSON struct {
		Computations int `json:"computations"`
		Rejections   struct {
			Length    int64 `json:"length"`
			Edit      int64 `json:"edit"`
			Heuristic int64 `json:"heuristic"`
			Exact     int64 `json:"exact"`
		} `json:"rejections"`
		LatencyMS float64 `json:"latency_ms"`
	}
	neighborsResp struct {
		Results []neighborJSON `json:"results"`
		metaJSON
	}
	classifyResp struct {
		Results []struct {
			Label    int          `json:"label"`
			Neighbor neighborJSON `json:"neighbor"`
		} `json:"results"`
		metaJSON
	}
	mutateResp struct {
		ID   uint64 `json:"id"`
		Size int    `json:"size"`
	}
	// serveHealth is the monolithic server's /healthz; clusterHealth the
	// coordinator's.
	serveHealth struct {
		Info struct {
			CorpusSize int `json:"corpus_size"`
			Cache      struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
			} `json:"cache"`
			Shards struct {
				Compactions uint64 `json:"compactions"`
				Detail      []struct {
					Delta      int `json:"delta"`
					Tombstones int `json:"tombstones"`
				} `json:"detail"`
			} `json:"shards"`
		} `json:"info"`
	}
	clusterHealth struct {
		Cluster struct {
			Hedged  uint64 `json:"hedged"`
			Retried uint64 `json:"retried"`
		} `json:"cluster"`
	}
)

// opKey carries the op index on a request context, for the tracer's root
// span.
type opKey struct{}

// client drives the program from one closed-loop HTTP connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// newClient returns a client holding at most one connection to base.
// wrap, when non-nil, wraps the transport (the tracer's root spans).
func newClient(base string, wrap func(http.RoundTripper) http.RoundTripper) *client {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &client{hc: &http.Client{Transport: rt, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and reads the whole response into c.buf.
func (c *client) post(ctx context.Context, path string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.send(req)
}

// get reads path into dst.
func (c *client) get(ctx context.Context, path string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	status, err := c.send(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(c.buf.Bytes(), dst)
}

func (c *client) send(req *http.Request) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// waitHealthy polls /healthz until it answers 200.
func (c *client) waitHealthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if status, err := c.send(req); err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for /healthz: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// do sends op i and fills rec with what came back: status, latency and
// the decoded answer. Decoding errors count as transport failures.
func (c *client) do(ctx context.Context, i int, o *op, rec *record) {
	ctx = context.WithValue(ctx, opKey{}, i)
	start := time.Now()
	status, err := c.post(ctx, opPaths[o.kind], o.body)
	rec.end = time.Now()
	rec.lat = rec.end.Sub(start)
	rec.status = status
	if err != nil {
		rec.status, rec.err = 0, err.Error()
		return
	}
	if status != http.StatusOK {
		rec.err = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(c.buf.Bytes()))
		return
	}
	if err := decodeRecord(o.kind, c.buf.Bytes(), rec); err != nil {
		rec.status, rec.err = 0, err.Error()
	}
}

// decodeRecord parses one 200 response body into rec.
func decodeRecord(kind opKind, body []byte, rec *record) error {
	setMeta := func(m metaJSON) {
		rec.comps = m.Computations
		rec.rej = [4]int64{m.Rejections.Length, m.Rejections.Edit, m.Rejections.Heuristic, m.Rejections.Exact}
		rec.engineMS = m.LatencyMS
	}
	switch kind {
	case opKNN, opRadius:
		var r neighborsResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decoding %s answer: %w", opPaths[kind], err)
		}
		setMeta(r.metaJSON)
		rec.nhits = len(r.Results)
		rec.digest = 0
		for j, n := range r.Results {
			if j < maxHits {
				rec.hits[j] = hit{id: n.Index, dist: n.Distance}
			}
			rec.digest += hitDigest(n.Index, n.Distance)
		}
	case opClassify:
		var r classifyResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decoding /classify/batch answer: %w", err)
		}
		setMeta(r.metaJSON)
		rec.nhits = len(r.Results)
		for j, p := range r.Results {
			if j < maxHits {
				rec.hits[j] = hit{id: p.Neighbor.Index, dist: p.Neighbor.Distance, label: p.Label}
			}
		}
	case opAdd, opDelete:
		var r mutateResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decoding %s answer: %w", opPaths[kind], err)
		}
		rec.id, rec.size = r.ID, r.Size
	}
	return nil
}
