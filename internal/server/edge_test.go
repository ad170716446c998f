package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRequestIDEchoAndGenerate: an inbound X-Request-ID is echoed back
// verbatim; an absent one is generated and returned.
func TestRequestIDEchoAndGenerate(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(requestIDHeader, "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); got != "caller-supplied-42" {
		t.Errorf("inbound request id not echoed: got %q", got)
	}

	resp2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	gen := resp2.Header.Get(requestIDHeader)
	if len(gen) != 16 {
		t.Errorf("generated request id %q, want 16 hex chars", gen)
	}
}

// TestAccessLog: every request writes one structured JSON line with the
// route template (not the raw path), status, sizes, and the request id.
func TestAccessLog(t *testing.T) {
	logBuf := &syncBuffer{b: &bytes.Buffer{}}
	s := New(Config{AccessLog: logBuf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := planBody(t, testCircuit(t, 1), "")
	if resp, b := postJSON(t, ts.URL+"/v1/plan", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: status %d, body %s", resp.StatusCode, b)
	}
	sub := submitJob(t, ts.URL, body)
	waitJob(t, ts.URL, sub.ID)

	lines := strings.Split(strings.TrimSpace(string(logBuf.snapshot())), "\n")
	if len(lines) < 3 { // plan, submit, >=1 status poll
		t.Fatalf("access log has %d lines, want >= 3", len(lines))
	}
	byRoute := map[string]accessLine{}
	for _, ln := range lines {
		var al accessLine
		if err := json.Unmarshal([]byte(ln), &al); err != nil {
			t.Fatalf("unparseable access-log line %q: %v", ln, err)
		}
		if al.ID == "" || al.Time == "" || al.Method == "" || al.DurMs < 0 {
			t.Errorf("access-log line missing fields: %+v", al)
		}
		byRoute[al.Route] = al
	}
	plan, ok := byRoute["POST /v1/plan"]
	if !ok {
		t.Fatalf("no access-log line for POST /v1/plan; routes seen: %v", byRoute)
	}
	if plan.Status != http.StatusOK || plan.Bytes <= 0 || plan.Cache != "miss" {
		t.Errorf("plan access line %+v: want status 200, bytes > 0, cache miss", plan)
	}
	status, ok := byRoute["GET /v1/jobs/{id}"]
	if !ok {
		t.Fatal("no access-log line for GET /v1/jobs/{id}")
	}
	if strings.Contains(status.Route, sub.ID) {
		t.Errorf("route label %q leaks the job id", status.Route)
	}
	if !strings.Contains(status.Path, sub.ID) {
		t.Errorf("path %q should keep the raw id", status.Path)
	}
}

// metriczDump mirrors the /v1/metricz histogram shape the quantile
// assertions need.
type metriczDump struct {
	Histograms map[string]struct {
		Count int      `json:"count"`
		Min   *float64 `json:"min"`
		Max   *float64 `json:"max"`
		P50   *float64 `json:"p50"`
		P95   *float64 `json:"p95"`
		P99   *float64 `json:"p99"`
	} `json:"histograms"`
}

// TestMetriczPerRouteHistograms: serving requests populates per-route
// latency and size histograms whose p50/p95/p99 are finite and monotone.
func TestMetriczPerRouteHistograms(t *testing.T) {
	m := obs.NewMetrics()
	ts := httptest.NewServer(New(Config{Metrics: m}).Handler())
	defer ts.Close()

	body := planBody(t, testCircuit(t, 1), "")
	for i := 0; i < 3; i++ {
		if resp, b := postJSON(t, ts.URL+"/v1/plan", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("plan %d: status %d, body %s", i, resp.StatusCode, b)
		}
	}
	resp, b := getJSON(t, ts.URL+"/v1/metricz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: status %d", resp.StatusCode)
	}
	var dump metriczDump
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{
		"http.latency_ms.POST /v1/plan",
		"http.resp_bytes.POST /v1/plan",
	} {
		h, ok := dump.Histograms[key]
		if !ok {
			t.Errorf("metricz has no %q histogram", key)
			continue
		}
		if h.Count < 3 {
			t.Errorf("%s count %d, want >= 3", key, h.Count)
		}
		for name, q := range map[string]*float64{"p50": h.P50, "p95": h.P95, "p99": h.P99} {
			if q == nil {
				t.Errorf("%s %s is null", key, name)
			} else if math.IsNaN(*q) || math.IsInf(*q, 0) {
				t.Errorf("%s %s = %v, want finite", key, name, *q)
			}
		}
		if h.P50 != nil && h.P95 != nil && h.P99 != nil {
			if !(*h.P50 <= *h.P95 && *h.P95 <= *h.P99) {
				t.Errorf("%s quantiles not monotone: p50=%v p95=%v p99=%v", key, *h.P50, *h.P95, *h.P99)
			}
			if h.Min != nil && h.Max != nil && (*h.P50 < *h.Min || *h.P99 > *h.Max) {
				t.Errorf("%s quantiles outside [min,max]: %v..%v vs [%v,%v]",
					key, *h.P50, *h.P99, *h.Min, *h.Max)
			}
		}
	}
	// The request counter rides alongside.
	if n := m.Counter("http.requests.POST /v1/plan"); n != 3 {
		t.Errorf("http.requests.POST /v1/plan = %v, want 3", n)
	}
}

// TestRouteLabel: raw paths map to bounded route templates.
func TestRouteLabel(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"POST", "/v1/plan", "POST /v1/plan"},
		{"POST", "/v1/jobs", "POST /v1/jobs"},
		{"GET", "/v1/jobs/abc123", "GET /v1/jobs/{id}"},
		{"DELETE", "/v1/jobs/abc123", "DELETE /v1/jobs/{id}"},
		{"GET", "/v1/jobs/abc123/events", "GET /v1/jobs/{id}/events"},
		{"GET", "/v1/healthz", "GET /v1/healthz"},
		{"HEAD", "/v1/healthz", "HEAD /v1/healthz"},
		{"PURGE", "/v1/plan", "other"},
		{"GET", "/nope", "other"},
	}
	for _, c := range cases {
		r := httptest.NewRequest(c.method, c.path, nil)
		if got := routeLabel(r); got != c.want {
			t.Errorf("routeLabel(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// TestNonstandardMethodsShareOneLabel: the route label never comes from a
// client-chosen method, so methods outside the nine standard ones cannot
// grow /v1/metricz. After 100 requests with the methods M000–M099 on
// /v1/plan, the scrape holds no http.requests.M… series, and the requests
// are counted under "other".
func TestNonstandardMethodsShareOneLabel(t *testing.T) {
	m := obs.NewMetrics()
	ts := httptest.NewServer(New(Config{Metrics: m}).Handler())
	defer ts.Close()
	for i := 0; i < 100; i++ {
		req, err := http.NewRequest(fmt.Sprintf("M%03d", i), ts.URL+"/v1/plan", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, b := getJSON(t, ts.URL+"/v1/metricz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: status %d", resp.StatusCode)
	}
	var dump struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	for name := range dump.Counters {
		if strings.HasPrefix(name, "http.requests.M") {
			t.Errorf("scrape holds a client-named series %q", name)
		}
	}
	if n := dump.Counters["http.requests.other"]; n != 100 {
		t.Errorf("http.requests.other = %v, want 100", n)
	}
}
