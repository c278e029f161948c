package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"ced/internal/serve"
	"ced/internal/shard"
)

// The layer table prices one fixed workload at every entry point a dict
// query crosses: dict's read stream (no writes) on its 2,000-word dC
// corpus, k=3, through the base LAESA, shard.Set at 1 and 4 shards,
// serve.Engine, the HTTP handler and a 2-node loopback cluster.

// layerQueries are timed per row, after layerWarm untimed ones that warm
// caches and lazy set-up.
const (
	layerQueries = 200
	layerWarm    = 50
)

type layerRow struct {
	name   string
	median float64 // per-query ms
	self   float64 // median per-query ms minus the evaluations' busy time
}

// layerTable runs the table with its own tracer (for the evaluations'
// busy time) and returns the rows outermost first.
func layerTable(ctx context.Context, seed int64, inside, pair float64) ([]layerRow, error) {
	in := genDict(seed, 2*(layerWarm+layerQueries))
	var qs []string
	for _, o := range in.ops {
		if o.kind == opKNN && len(qs) < layerWarm+layerQueries {
			qs = append(qs, o.queries[0])
		}
	}
	tr := newTracer(inside, pair)
	m, err := metricFor("dC", tr)
	if err != nil {
		return nil, err
	}
	build, err := shard.StandardBuild("laesa", m, 16, datasetSeed, 0)
	if err != nil {
		return nil, err
	}
	runes := make([][]rune, len(in.corpus))
	for i, v := range in.corpus {
		runes[i] = []rune(v)
	}
	var rows []layerRow
	add := func(name string, query func(q string) (int, error)) error {
		row, err := timeRow(tr, name, qs, query)
		rows = append([]layerRow{row}, rows...)
		return err
	}

	base := build(0, runes)
	if err := add("laesa", func(q string) (int, error) {
		return len(base.KNearest([]rune(q), knnK)), nil
	}); err != nil {
		return nil, err
	}
	for _, n := range []int{1, 4} {
		set, err := shard.New(in.corpus, nil, shard.Config{Shards: n, Metric: m, Build: build, Algorithm: "laesa"})
		if err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("set%d", n), func(q string) (int, error) {
			hits, st, err := set.KNearestCtx(ctx, []rune(q), knnK)
			if st.Computations == 0 {
				return 0, fmt.Errorf("set%d row: no computations reported", n)
			}
			return len(hits), err
		}); err != nil {
			return nil, err
		}
	}
	e, err := serve.New(in.corpus, nil, m, serve.Config{
		Algorithm: "laesa", Pivots: 16, Seed: datasetSeed, Shards: 4, CacheSize: 4096,
	})
	if err != nil {
		return nil, err
	}
	if err := add("engine", func(q string) (int, error) {
		hits, st, err := e.KNearestCtx(ctx, q, knnK)
		if st.Computations == 0 {
			return 0, fmt.Errorf("engine row: no computations reported")
		}
		return len(hits), err
	}); err != nil {
		return nil, err
	}
	lb, err := serveLoopback(serve.NewHandler(e))
	if err != nil {
		return nil, err
	}
	err = httpRow(ctx, lb.url, "http", qs, tr, &rows)
	err = errors.Join(err, lb.close())
	if err != nil {
		return nil, err
	}
	sys, err := startCluster(in.corpus, m, "laesa", datasetSeed, nil)
	if err != nil {
		return nil, err
	}
	err = httpRow(ctx, sys.url, "cluster", qs, tr, &rows)
	err = errors.Join(err, sys.close())
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// httpRow prepends the row of /knn requests over one connection.
func httpRow(ctx context.Context, url, name string, qs []string, tr *tracer, rows *[]layerRow) error {
	c := newClient(url, nil)
	defer c.close()
	row, err := timeRow(tr, name, qs, func(q string) (int, error) {
		var r neighborsResp
		status, err := c.post(ctx, "/knn", knnOp(q).body)
		switch {
		case err != nil:
			return 0, err
		case status != http.StatusOK:
			return 0, fmt.Errorf("%s row: /knn status %d", name, status)
		}
		err = json.Unmarshal(c.buf.Bytes(), &r)
		return len(r.Results), err
	})
	*rows = append([]layerRow{row}, *rows...)
	return err
}

// timeRow sends the warm-up queries, then times each remaining query and
// the evaluations' busy time inside it. Every answer must hold k
// neighbours.
func timeRow(tr *tracer, name string, qs []string, query func(string) (int, error)) (layerRow, error) {
	run := func(q string) error {
		n, err := query(q)
		if err == nil && n != knnK {
			err = fmt.Errorf("%s row: %d neighbours for %q, want %d", name, n, q, knnK)
		}
		return err
	}
	for _, q := range qs[:layerWarm] {
		if err := run(q); err != nil {
			return layerRow{name: name}, err
		}
	}
	qs = qs[layerWarm:]
	times, self := make([]float64, len(qs)), make([]float64, len(qs))
	for i, q := range qs {
		before := tr.query.snap()
		start := time.Now()
		if err := run(q); err != nil {
			return layerRow{name: name}, err
		}
		d := float64(time.Since(start))
		busy := tr.query.snap().sub(before).busy(tr.inside)
		times[i], self[i] = d/1e6, math.Max(0, d-busy)/1e6
	}
	return layerRow{name: name, median: median(times), self: median(self)}, nil
}

// printLayerTable writes the rows with each row's ratio to the row below.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "layer table: dict read stream, %d queries, k=%d, %d words, dC (median per query)\n", layerQueries, knnK, dictWords)
	fmt.Fprintf(w, "  %-8s %10s %10s %14s\n", "row", "ms", "self_ms", "ratio_to_below")
	for i, r := range rows {
		ratio := "-"
		if i+1 < len(rows) && rows[i+1].median > 0 {
			ratio = fmt.Sprintf("%.3f", r.median/rows[i+1].median)
		}
		fmt.Fprintf(w, "  %-8s %10.4f %10.4f %14s\n", r.name, r.median, r.self, ratio)
	}
}
