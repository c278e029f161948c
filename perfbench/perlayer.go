package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// layerInput is what the per-layer metrics are computed from: the traced
// phase's records and spans, the traced set-up's build-path work and the
// layer table.
type layerInput struct {
	w           *workload
	in          *inputs
	recs        []record
	ph          *phase
	tr          *tracer
	setupBuild  buildSnap
	setupEngine time.Duration
	qpsUntraced float64
	rows        []layerRow
}

// perLayer adds every per-layer metric to rep. A metric a workload does
// not exercise (remote.* off the cluster, the LRU under batches) reads 0
// with a note.
func perLayer(rep *report, li layerInput) {
	in, ph, tr := li.in, li.ph, li.tr
	workers := float64(runtime.GOMAXPROCS(0))
	// live[i] is the live corpus size when op i was sent.
	live := make([]int, len(in.ops))
	size := len(in.corpus)
	for i, o := range in.ops {
		live[i] = size
		switch o.kind {
		case opAdd:
			size++
		case opDelete:
			size--
		}
	}

	var (
		comps, answers, liveAns        float64
		rej                            [4]float64
		evals                          evalSnap
		busy, engineNS                 float64
		nReads, nReqs                  int
		engine, edgeWrites, srvWrites  []float64
		callDur, slowest               []float64
		httpSelf, transport, respBytes float64
		nTransport, nHTTP              int
		calls, wireBytes, coordSelf    float64
		nCoord                         int
	)
	for _, q := range tr.requests() {
		i := q.root.op
		if i < li.w.warm || i >= ph.n {
			continue // warm-up window
		}
		o, r := &in.ops[i], &li.recs[i]
		if r.status != http.StatusOK {
			continue
		}
		nReqs++
		respBytes += float64(q.root.bytes)
		if q.hasEdge {
			transport += float64(q.root.dur()-q.edge.dur()) / 1e6
			nTransport++
			calls += float64(len(q.calls))
			for _, c := range q.calls {
				wireBytes += float64(c.bytes)
			}
			if len(q.calls) > 0 {
				coordSelf += float64(q.edge.dur()-covered(q.calls, q.edge.start, q.edge.end)) / 1e6
				nCoord++
			}
		}
		if !o.kind.read() {
			if q.hasEdge {
				edgeWrites = append(edgeWrites, float64(q.edge.dur())/1e6)
			}
			for _, s := range q.servers {
				if s.write {
					srvWrites = append(srvWrites, float64(s.dur())/1e6)
				}
			}
			continue
		}
		nReads++
		comps += float64(r.comps)
		for s, n := range r.rej {
			rej[s] += float64(n)
		}
		answers += float64(len(o.queries))
		liveAns += float64(live[i] * len(o.queries))
		evals = evals.add(q.root.evals)
		busy += q.root.evals.busy(tr.inside)
		engineNS += r.engineMS * 1e6
		engine = append(engine, r.engineMS)
		if q.hasEdge {
			httpSelf += float64(q.edge.dur())/1e6 - r.engineMS
			nHTTP++
		}
		if len(q.calls) > 0 {
			longest := int64(0)
			for _, c := range q.calls {
				callDur = append(callDur, float64(c.dur())/1e6)
				longest = max(longest, c.dur())
			}
			slowest = append(slowest, float64(longest)/1e6)
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cluster := li.w.name == "cluster-spell"
	na := func(ok bool, note string) string {
		if ok {
			return note
		}
		return "n/a on this workload"
	}

	// core
	rep.metric("core.evals_per_query", "count", div(comps, answers), int(answers), "response meta computations per answer")
	for s, name := range keyNames[:4] {
		rep.metric("core.rej_"+name+"_frac", "ratio", div(rej[s], comps), int(comps), "rejections at this rung / computations")
	}
	rep.metric("core.complete_frac", "ratio", div(comps-rej[0]-rej[1]-rej[2]-rej[3], comps), int(comps), "evaluations run to completion")
	rep.metric("core.busy_ms_per_req", "ms", div(busy, float64(nReads))/1e6, nReads, "forwarding-metric time per read request")
	for k, name := range keyNames {
		n := float64(evals.n[k])
		rep.metric("core.ns_per_eval."+name, "ns", div(float64(evals.ns[k])-n*tr.inside, n), int(n), "keyed by the rung the call returned")
	}
	rep.metric("core.build_evals", "count", float64(li.setupBuild.evals), 1, "build-path evaluations in the traced set-up")
	rep.metric("core.build_busy_s", "s", li.setupBuild.busy(tr.inside)/1e9, int(li.setupBuild.calls), "build-path time in the traced set-up")
	rep.metric("core.window_evals", "count", float64(ph.fp.comps), ph.fp.reads, "computations in the warm-up window (fingerprint)")

	// search
	laesa, set1 := rowOf(li.rows, "laesa"), rowOf(li.rows, "set1")
	rep.metric("search.pruned_frac", "ratio", 1-div(comps, liveAns), int(answers), "1 - evaluations / live corpus")
	rep.metric("search.self_ms_per_query", "ms", laesa.self, layerQueries, "layer table: base LAESA minus evaluation time")

	// bulk
	rep.metric("bulk.parallel_eff", "ratio", div(busy, engineNS*workers), nReads, fmt.Sprintf("evaluation time / (engine time x %d workers)", int(workers)))
	rep.metric("bulk.build_parallel_eff", "ratio", div(li.setupBuild.busy(tr.inside), float64(li.setupEngine)*workers), 1, "the same ratio during set-up")

	// shard
	pendingMean := 0.0
	for _, p := range ph.pending {
		pendingMean += p
	}
	shardNote := "from /healthz"
	if cluster {
		shardNote = "n/a: the shard-server API exposes no compaction counters"
	}
	rep.metric("shard.compactions", "count", float64(ph.h1.compactions-ph.h0.compactions), 1, shardNote)
	rep.metric("shard.compact_busy_s", "s", ph.build1.sub(ph.build0).busy(tr.inside)/1e9, int(ph.build1.sub(ph.build0).calls), "build-path time during the measured phase")
	rep.metric("shard.pending_mean", "count", div(pendingMean, float64(len(ph.pending))), len(ph.pending), shardNote+", delta + tombstones per shard")
	shardWrites := edgeWrites
	if cluster {
		shardWrites = srvWrites
	}
	rep.metric("shard.write_ms_p50", "ms", quantile(shardWrites, 0.5), len(shardWrites), "server-side span of /add and /delete")
	rep.metric("shard.self_ms_per_query", "ms", set1.median-laesa.median, layerQueries, "layer table: set1 minus base LAESA (same index)")

	// serve
	hits := float64(ph.h1.cacheHits - ph.h0.cacheHits)
	misses := float64(ph.h1.cacheMisses - ph.h0.cacheMisses)
	rep.metric("serve.engine_ms_p50", "ms", quantile(engine, 0.5), len(engine), "response meta latency_ms of the edge server")
	rep.metric("serve.http_self_ms_per_req", "ms", div(httpSelf, float64(nHTTP)), nHTTP, "edge handler span minus latency_ms")
	rep.metric("serve.cache_hit_frac", "ratio", div(hits, hits+misses), int(hits+misses), na(hits+misses > 0, "rune LRU, from /healthz"))
	rep.metric("serve.resp_bytes_per_req", "B", div(respBytes, float64(nReqs)), nReqs, "response body bytes")

	// remote
	hedged := float64(ph.h1.hedged - ph.h0.hedged)
	retried := float64(ph.h1.retried - ph.h0.retried)
	rep.metric("remote.shard_calls_per_req", "count", div(calls, float64(nTransport)), nTransport, na(cluster, "coordinator to shard-server calls"))
	rep.metric("remote.shard_call_ms_p50", "ms", quantile(callDur, 0.5), len(callDur), na(cluster, "read shard calls"))
	rep.metric("remote.slowest_shard_ms_p50", "ms", quantile(slowest, 0.5), len(slowest), na(cluster, "slowest call of each read fan"))
	rep.metric("remote.coord_self_ms_per_req", "ms", div(coordSelf, float64(nCoord)), nCoord, na(cluster, "coordinator span minus the time its calls cover"))
	rep.metric("remote.wire_bytes_per_req", "B", div(wireBytes, float64(nTransport)), nTransport, na(cluster, "shard-call request + response bytes"))
	rep.metric("remote.hedged_frac", "ratio", div(hedged, float64(nReads)), nReads, na(cluster, "hedges launched per read, from /healthz"))
	rep.metric("remote.retried_frac", "ratio", div(retried, float64(nReads)), nReads, na(cluster, "failovers per read, from /healthz"))
	remoteWrites := []float64(nil)
	if cluster {
		remoteWrites = edgeWrites
	}
	rep.metric("remote.write_ms_p50", "ms", quantile(remoteWrites, 0.5), len(remoteWrites), na(cluster, "coordinator span of /add and /delete"))

	// sanity rows
	rep.metric("client.transport_ms_per_req", "ms", div(transport, float64(nTransport)), nTransport, "client span minus the edge server span")
	qpsTraced := answersOf(in, li.recs, li.w.warm, ph.n) / ph.elapsed.Seconds()
	rep.metric("trace.overhead_frac", "ratio", 1-div(qpsTraced, li.qpsUntraced), 2, fmt.Sprintf("traced %.1f vs untraced %.1f answers/s", qpsTraced, li.qpsUntraced))

	for _, r := range li.rows {
		rep.metric("layer."+r.name+"_ms", "ms", r.median, layerQueries, "layer table median per query")
	}
}

func rowOf(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	return layerRow{name: name}
}
