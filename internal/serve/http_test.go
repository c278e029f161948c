package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ced/internal/metric"
)

func newTestServer(t *testing.T, algorithm string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(newTestEngine(t, algorithm)))
	t.Cleanup(srv.Close)
	return srv
}

// postJSON sends body to path and decodes the response into out, returning
// the HTTP status.
func postJSON(t *testing.T, srv *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type = %q", path, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, "laesa")
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
		Info   Info   `json:"info"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Info.CorpusSize != len(testCorpus) || h.Info.Algorithm != "laesa" {
		t.Fatalf("health = %+v", h)
	}
}

func TestDistanceEndpoint(t *testing.T) {
	srv := newTestServer(t, "linear")
	var out struct {
		Metric       string  `json:"metric"`
		Distance     float64 `json:"distance"`
		Computations int     `json:"computations"`
		LatencyMS    float64 `json:"latency_ms"`
	}
	if code := postJSON(t, srv, "/distance", `{"a":"casa","b":"casa"}`, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Distance != 0 || out.Metric != "dC,h" || out.Computations != 1 {
		t.Fatalf("response = %+v", out)
	}
	if out.LatencyMS < 0 {
		t.Fatalf("latency = %v", out.LatencyMS)
	}
}

func TestBatchDistanceEndpoint(t *testing.T) {
	srv := newTestServer(t, "linear")
	var out struct {
		Distances    []float64 `json:"distances"`
		Computations int       `json:"computations"`
	}
	body := `{"pairs":[{"a":"casa","b":"cosa"},{"a":"x","b":"x"},{"a":"gato","b":"gatos"}]}`
	if code := postJSON(t, srv, "/distance/batch", body, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out.Distances) != 3 || out.Computations != 3 {
		t.Fatalf("response = %+v", out)
	}
	if out.Distances[1] != 0 {
		t.Fatalf("identical pair distance = %v", out.Distances[1])
	}
}

func TestKNNEndpoint(t *testing.T) {
	srv := newTestServer(t, "aesa")
	var out struct {
		Results      []Neighbor `json:"results"`
		Computations int        `json:"computations"`
	}
	if code := postJSON(t, srv, "/knn", `{"query":"cas","k":2}`, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	// "casa" and "caso" tie under dC,h; either may rank first.
	if len(out.Results) != 2 || out.Computations <= 0 ||
		(out.Results[0].Value != "casa" && out.Results[0].Value != "caso") {
		t.Fatalf("response = %+v", out)
	}

	var batch struct {
		Results [][]Neighbor `json:"results"`
	}
	if code := postJSON(t, srv, "/knn/batch", `{"queries":["cas","gat"],"k":1}`, &batch); code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	if len(batch.Results) != 2 || batch.Results[1][0].Value != "gato" {
		t.Fatalf("batch response = %+v", batch)
	}
}

// TestRadiusEndpoint pins the range-query endpoint added alongside the
// cluster transport: a zero radius returns exactly the query's own corpus
// entry, a generous one returns more, sorted by distance, and a negative
// radius is a 400.
func TestRadiusEndpoint(t *testing.T) {
	srv := newTestServer(t, "laesa")
	var out struct {
		Results      []Neighbor `json:"results"`
		Computations int        `json:"computations"`
	}
	if code := postJSON(t, srv, "/radius", `{"query":"queso","radius":0}`, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out.Results) != 1 || out.Results[0].Value != "queso" || out.Results[0].Distance != 0 {
		t.Fatalf("zero-radius response = %+v", out)
	}
	if code := postJSON(t, srv, "/radius", `{"query":"casa","radius":0.9}`, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(out.Results) < 2 || out.Computations <= 0 {
		t.Fatalf("wide-radius response = %+v", out)
	}
	for i := 1; i < len(out.Results); i++ {
		if out.Results[i].Distance < out.Results[i-1].Distance {
			t.Fatalf("results not sorted by distance: %+v", out.Results)
		}
	}
	for _, r := range out.Results {
		if r.Distance > 0.9 {
			t.Fatalf("hit outside the radius: %+v", r)
		}
	}
	if code := postJSON(t, srv, "/radius", `{"query":"casa","radius":-1}`, nil); code != http.StatusBadRequest {
		t.Fatalf("negative radius status = %d, want 400", code)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	srv := newTestServer(t, "laesa")
	var out struct {
		Label    int      `json:"label"`
		Neighbor Neighbor `json:"neighbor"`
	}
	if code := postJSON(t, srv, "/classify", `{"query":"gatito"}`, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Label != 3 {
		t.Fatalf("response = %+v", out)
	}

	var batch struct {
		Results []Prediction `json:"results"`
	}
	if code := postJSON(t, srv, "/classify/batch", `{"queries":["gatito","cesa"]}`, &batch); code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	if len(batch.Results) != 2 || batch.Results[0].Label != 3 || batch.Results[1].Label != 0 {
		t.Fatalf("batch response = %+v", batch)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := newTestServer(t, "linear")

	var e struct {
		Error string `json:"error"`
	}
	// Malformed JSON.
	if code := postJSON(t, srv, "/distance", `{"a":`, &e); code != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d", code)
	}
	if e.Error == "" {
		t.Error("malformed body: empty error message")
	}
	// Unknown fields are rejected (catches client typos like "strinq").
	if code := postJSON(t, srv, "/distance", `{"a":"x","b":"y","strinq":"z"}`, &e); code != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d", code)
	}
	// Invalid k.
	if code := postJSON(t, srv, "/knn", `{"query":"cas","k":0}`, &e); code != http.StatusBadRequest {
		t.Errorf("k=0: status = %d", code)
	}
	// Method not allowed on POST-only endpoints.
	resp, err := http.Get(srv.URL + "/distance")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /distance: status = %d", resp.StatusCode)
	}
	// Oversized body.
	huge := `{"a":"` + strings.Repeat("x", maxBodyBytes) + `","b":"y"}`
	if code := postJSON(t, srv, "/distance", huge, &e); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d", code)
	}
}

func TestClassifyEndpointUnlabelled(t *testing.T) {
	e, err := New(testCorpus, nil, metric.Levenshtein(), Config{Algorithm: "linear"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	var out struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, srv, "/classify", `{"query":"gato"}`, &out); code != http.StatusBadRequest {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(out.Error, "unlabelled") {
		t.Fatalf("error = %q", out.Error)
	}
}
