package remote

import (
	"cmp"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ced/internal/metric"
	"ced/internal/search"
	"ced/internal/shard"
)

// FuzzShardRequest sends arbitrary bodies to every POST route of the shard
// transport — the decoder a replica's seed, writes and re-sync dump all
// arrive through — on a freshly seeded dE BK-tree slot holding one
// tombstone and one delta entry, plus an unseeded slot and malformed slot
// indexes. Whatever the body, the server must not panic, must answer 200,
// 400, 404, 409 or 413 with a JSON body, and must leave slot 0's next ID
// above every live ID. A knn or radius body that decodes to a request
// search.Request.Validate refuses (k ≤ 0, a negative bound or radius) must
// answer 400, and every 200 from knn or radius must hold exactly the hits
// a linear scan of the slot's live elements returns for the decoded
// request, in (distance, ID) order; a null or absent k-NN max_distance is
// +Inf.
func FuzzShardRequest(f *testing.F) {
	paths := []string{
		"/shard/0/seed", "/shard/0/knn", "/shard/0/radius", "/shard/0/add",
		"/shard/0/delete", "/shard/0/compact", "/shard/7/knn", "/shard/x/knn", "/shard/-1/radius",
	}
	for _, s := range []struct {
		route uint8
		body  string
	}{
		{0, `{"metric":"dE","labelled":true,"elements":[{"id":3,"value":"sol","label":1}]}`},
		{0, `{"metric":"dC","elements":[]}`},
		{0, `{"elements":[{"id":1,"value":"a"},{"id":1,"value":"b"}]}`},
		{0, `{"elements":[{"id":4,"value":"a"},{"id":18446744073709551615,"value":"b"}]}`},
		{1, `{"query":"casa","k":3,"max_distance":null}`},
		{1, `{"query":"casa","k":3}`},
		{1, `{"query":"casa","k":2,"max_distance":1}`},
		{1, `{"query":"casa","k":2,"max_distance":0}`},
		{1, `{"query":"casa","k":2,"max_distance":-1}`},
		{1, `{"query":"casa","k":2,"bound":-1}`},
		{1, `{"query":"casa","k":9223372036854775807,"max_distance":null}`},
		{1, `{"query":"casa","k":-1}`},
		{1, `{"query":`},
		{2, `{"query":"casa","radius":1}`},
		{2, `{"query":"casa","radius":1e308}`},
		{2, `{"query":"casa","radius":-2}`},
		{3, `{"id":9,"value":"nuevo","label":2}`},
		{3, `{"id":1,"value":"cosa"}`},
		{3, `{"id":18446744073709551615,"value":"x"}`},
		{4, `{"id":0}`},
		{4, `{"id":3}`},
		{5, ``},
		{6, `{"query":"casa","k":1}`},
		{7, `{"query":"casa","k":1}`},
		{8, `{"query":"casa","radius":1}`},
	} {
		f.Add(s.route, s.body)
	}
	m := metric.Levenshtein()
	corpus := []string{"casa", "cosa", "caso", "masa", "pasa", "queso", "gato", "gatos"}
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		srv, err := NewShardServer(ServerConfig{Metric: m, Algorithm: "bktree", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		elems := make([]shard.Element, len(corpus))
		for i, v := range corpus {
			elems[i] = shard.Element{ID: uint64(i), Value: v, Label: i % 3}
		}
		if err := srv.seed(0, true, elems); err != nil {
			t.Fatal(err)
		}
		set := srv.slot(0)
		delta := shard.Element{ID: uint64(len(corpus)), Value: "cesa", Label: 1}
		if !set.Delete(0) || !set.AddWithID(delta.ID, delta.Value, delta.Label) {
			t.Fatal("setting up the slot's tombstone and delta entry")
		}
		live := append(elems[1:], delta) // element 0 is the tombstone

		path := paths[int(route)%len(paths)]
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %q: HTTP %d: %s", path, body, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: HTTP %d answered a non-JSON body (%q): %s", path, body, rec.Code, ct, rec.Body.String())
		}
		slot0 := srv.slot(0)
		for _, e := range slot0.Elements() {
			if e.ID >= slot0.NextID() {
				t.Fatalf("%s %q: slot 0's next ID %d does not exceed live ID %d", path, body, slot0.NextID(), e.ID)
			}
		}
		if path != "/shard/0/knn" && path != "/shard/0/radius" {
			return
		}
		// The handler decoded the body's first JSON value; decode it the
		// same way into the request the slot answered.
		var q string
		var req search.Request
		if path == "/shard/0/knn" {
			var kr knnRequest
			err = json.NewDecoder(strings.NewReader(body)).Decode(&kr)
			bound := math.Inf(1)
			if kr.MaxDistance != nil {
				bound = *kr.MaxDistance
			}
			q, req = kr.Query, search.KNN(kr.K, bound)
		} else {
			var rr radiusRequest
			err = json.NewDecoder(strings.NewReader(body)).Decode(&rr)
			q, req = rr.Query, search.Within(rr.Radius)
		}
		switch {
		case err != nil:
			if rec.Code == http.StatusOK {
				t.Fatalf("%s %q: HTTP 200 for a body that does not decode: %v", path, body, err)
			}
			return
		case req.Validate() != nil:
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %q: HTTP %d for a request Validate refuses (%v), want 400", path, body, rec.Code, req.Validate())
			}
			return
		case rec.Code != http.StatusOK:
			return
		}
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want := linearScan(m, live, q, req)
		if !slices.Equal(resp.Hits, want) {
			t.Fatalf("%s %q: hits %+v, a linear scan of the slot returns %+v", path, body, resp.Hits, want)
		}
	})
}

// linearScan answers req over elems by evaluating every element: the hits
// within the request's bound, ordered by (distance, ID), and for a k-NN
// request the first k of them.
func linearScan(m metric.Metric, elems []shard.Element, q string, req search.Request) []shard.Hit {
	if !req.IsRadius() && req.K() <= 0 {
		return nil
	}
	var hits []shard.Hit
	for _, e := range elems {
		if d := m.Distance([]rune(q), []rune(e.Value)); d <= req.Bound() {
			hits = append(hits, shard.Hit{ID: e.ID, Value: e.Value, Label: e.Label, Distance: d})
		}
	}
	slices.SortFunc(hits, func(a, b shard.Hit) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
	if !req.IsRadius() && len(hits) > req.K() {
		hits = hits[:req.K()]
	}
	return hits
}
