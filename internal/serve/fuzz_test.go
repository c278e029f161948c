package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ced/internal/metric"
)

// FuzzClientRequest sends arbitrary bodies to the five client endpoints
// (the routes a coordinator shares) of a small labelled engine holding one
// tombstone. Whatever the body, the server must not panic, must answer
// 200, 400, 404 or 413 with a JSON body, and every 200 from /knn or
// /radius must hold as many hits as a linear scan of the live corpus —
// which covers the tombstone under a huge k.
func FuzzClientRequest(f *testing.F) {
	paths := []string{"/knn", "/radius", "/classify", "/add", "/delete"}
	for _, s := range []struct {
		route uint8
		body  string
	}{
		{0, `{"query":"casa","k":2}`},
		{0, `{"query":"casa","k":9223372036854775807}`},
		{0, `{"query":"casa","k":-1}`},
		{0, `{"query":`},
		{1, `{"query":"casa","radius":1}`},
		{1, `{"query":"casa","radius":1e308}`},
		{2, `{"query":"gatito"}`},
		{2, `{"query":"gatito","k":1}`},
		{3, `{"value":"nuevo","label":1}`},
		{3, `{"value":"nuevo"}`},
		{4, `{"id":0}`},
		{4, `{"id":3}`},
	} {
		f.Add(s.route, s.body)
	}
	m := metric.Levenshtein()
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		e, err := New(testCorpus, testLabels, m, Config{Algorithm: "linear", Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := e.Delete(context.Background(), 0); err != nil || !ok {
			t.Fatalf("tombstoning element 0: %v %v", ok, err)
		}
		live := testCorpus[1:]
		path := paths[int(route)%len(paths)]
		rec := httptest.NewRecorder()
		NewHandler(e).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %q: HTTP %d: %s", path, body, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: HTTP %d answered a non-JSON body (%q): %s", path, body, rec.Code, ct, rec.Body.String())
		}
		if rec.Code != http.StatusOK || (path != "/knn" && path != "/radius") {
			return
		}
		// The handler decoded the body's first JSON value; decode it the
		// same way and count what a linear scan of the live corpus holds.
		want := 0
		if path == "/knn" {
			var req knnRequest
			if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
				t.Fatal(err)
			}
			want = min(req.K, len(live))
		} else {
			var req radiusRequest
			if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
				t.Fatal(err)
			}
			for _, v := range live {
				if m.Distance([]rune(req.Query), []rune(v)) <= req.Radius {
					want++
				}
			}
		}
		var resp knnResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != want {
			t.Fatalf("%s %q: %d hits, a linear scan of the live corpus holds %d", path, body, len(resp.Results), want)
		}
	})
}
