package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// testCircuit generates a small apte-derived instance; identical seeds
// produce identical circuits, so two requests built from the same seed are
// the same content-addressed problem.
func testCircuit(t testing.TB, seed int64) *netlist.Circuit {
	t.Helper()
	spec, err := floorplan.BySuiteName("apte")
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{Seed: seed, GridW: 10, GridH: 11})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// planBody builds a /v1/plan request body for a circuit.
func planBody(t testing.TB, c *netlist.Circuit, extra string) []byte {
	t.Helper()
	cj, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"circuit":%s%s}`, cj, extra))
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestPlanEndToEnd: a full plan over HTTP succeeds, a repeat of the same
// request is a cache hit, and the two bodies are byte-identical — the
// central soundness claim of the content-addressed cache. The repeat,
// recalled from the alias table by its digest, carries the miss's ETag and
// counts exactly one cache.hit, as a hit in the keyed path does.
func TestPlanEndToEnd(t *testing.T) {
	m := obs.NewMetrics()
	ts := httptest.NewServer(New(Config{Metrics: m}).Handler())
	defer ts.Close()
	body := planBody(t, testCircuit(t, 1), "")

	resp1, b1 := postJSON(t, ts.URL+"/v1/plan", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d, body %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", got)
	}
	var pr struct {
		Key    string `json:"key"`
		Report struct {
			Circuit string `json:"circuit"`
			Stages  []struct {
				Stage      int     `json:"stage"`
				Buffers    int     `json:"buffers"`
				CPUSeconds float64 `json:"cpu_seconds"`
			} `json:"stages"`
		} `json:"report"`
	}
	if err := json.Unmarshal(b1, &pr); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if len(pr.Report.Stages) != 4 {
		t.Fatalf("report has %d stages, want 4", len(pr.Report.Stages))
	}
	for _, s := range pr.Report.Stages {
		if s.CPUSeconds != 0 {
			t.Errorf("stage %d leaked wall-clock CPU %v into the deterministic body", s.Stage, s.CPUSeconds)
		}
	}
	if want := `"` + pr.Key + `"`; resp1.Header.Get("ETag") != want {
		t.Errorf("ETag %q does not quote the content key %q", resp1.Header.Get("ETag"), pr.Key)
	}

	resp2, b2 := postJSON(t, ts.URL+"/v1/plan", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", got)
	}
	if resp2.Header.Get("ETag") != resp1.Header.Get("ETag") {
		t.Errorf("second POST ETag %s, first %s", resp2.Header.Get("ETag"), resp1.Header.Get("ETag"))
	}
	if !bytes.Equal(b1, b2) {
		t.Error("cached response differs from fresh response")
	}
	if hits := m.Counter("cache.hit"); hits != 1 {
		t.Errorf("cache.hit counter = %v, want 1", hits)
	}
}

// TestWarmPoolByteIdentity: the server's route.Workspace pool must be
// invisible in response bytes. A server whose pooled workspaces have been
// dirtied by earlier plans (different circuits, different grids) must
// produce, for a new circuit, exactly the bytes a fresh server produces
// for that circuit as its first-ever request. This pins the workspace
// recycling path (epoch stamping, tree free list, grown scratch arrays)
// to the cache's soundness claim.
func TestWarmPoolByteIdentity(t *testing.T) {
	target := planBody(t, testCircuit(t, 9), "")

	warm := httptest.NewServer(New(Config{}).Handler())
	defer warm.Close()
	// Dirty the pool with two unrelated plans first.
	for _, seed := range []int64{7, 8} {
		resp, b := postJSON(t, warm.URL+"/v1/plan", planBody(t, testCircuit(t, seed), ""))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up seed %d: status %d, body %s", seed, resp.StatusCode, b)
		}
	}
	respW, bodyWarm := postJSON(t, warm.URL+"/v1/plan", target)
	if respW.StatusCode != http.StatusOK {
		t.Fatalf("warm server: status %d, body %s", respW.StatusCode, bodyWarm)
	}
	if respW.Header.Get("X-Cache") != "miss" {
		t.Fatalf("warm server target request was not a fresh compute")
	}

	fresh := httptest.NewServer(New(Config{}).Handler())
	defer fresh.Close()
	respF, bodyFresh := postJSON(t, fresh.URL+"/v1/plan", target)
	if respF.StatusCode != http.StatusOK {
		t.Fatalf("fresh server: status %d, body %s", respF.StatusCode, bodyFresh)
	}
	if !bytes.Equal(bodyWarm, bodyFresh) {
		t.Error("dirty-pool compute differs from fresh-server compute: workspace state leaked into results")
	}
}

// TestCrossServerByteIdentity: two independent servers given the same
// request produce byte-identical bodies — the response really is a pure
// function of the request, not of server state.
func TestCrossServerByteIdentity(t *testing.T) {
	body := planBody(t, testCircuit(t, 3), "")
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(New(Config{}).Handler())
		resp, b := postJSON(t, ts.URL+"/v1/plan", body)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d, body %s", i, resp.StatusCode, b)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("two fresh servers produced different bodies for the same request")
	}
}

// TestPlanDeadline: a 1ms deadline expires long before the run completes;
// the request comes back promptly as 504, and the failure is not cached —
// a follow-up with a sane deadline succeeds. The circuit is deliberately
// larger than testCircuit's: the deadline is only *observed* at a core
// cancellation checkpoint after the runtime delivers the timer, so a
// compute much longer than the scheduler's preemption granularity is
// needed to make the 504 deterministic rather than a race against a
// small plan finishing first.
func TestPlanDeadline(t *testing.T) {
	spec, err := floorplan.BySuiteName("apte")
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{Seed: 1, GridW: 20, GridH: 22})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := planBody(t, c, `,"timeout_ms":1`)
	start := time.Now()
	resp, b := postJSON(t, ts.URL+"/v1/plan", body)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("expired request took %v to return", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s, want 504", resp.StatusCode, b)
	}
	// Same circuit, sane deadline: if the 504 had been cached, this would
	// serve the failure instead of computing.
	resp2, b2 := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, ""))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after timeout: status %d, body %s", resp2.StatusCode, b2)
	}
}

// TestSaturation429: with every run slot held and no queue, a plan request
// fails fast with 429 and a Retry-After header; once a slot frees, the
// identical request succeeds.
func TestSaturation429(t *testing.T) {
	s := New(Config{MaxInflight: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single run slot directly — deterministic, unlike racing
	// a real in-flight run.
	s.sem <- struct{}{}
	s.queued.Add(1)

	body := planBody(t, testCircuit(t, 1), "")
	resp, b := postJSON(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, body %s, want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if n := s.metrics.Counter("server.rejected"); n != 1 {
		t.Errorf("server.rejected counter = %v, want 1", n)
	}

	// Health keeps answering while the planner is saturated.
	hresp, hb := getJSON(t, ts.URL+"/v1/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: status %d", hresp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Inflight int    `json:"inflight"`
	}
	if err := json.Unmarshal(hb, &h); err != nil || h.Status != "ok" || h.Inflight != 1 {
		t.Errorf("healthz = %s (err %v), want status ok with inflight 1", hb, err)
	}

	s.release()
	resp2, b2 := postJSON(t, ts.URL+"/v1/plan", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("POST after slot freed: status %d, body %s", resp2.StatusCode, b2)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSingleflightDedup: N concurrent identical plan requests trigger
// exactly one core run — the others coalesce onto it or hit the cache.
// The "run" span count in the attached metrics counts real pipeline runs.
// The answered body is remembered, so a second concurrent wave is recalled
// from the alias table: all hits, with the same bytes and no further run.
func TestSingleflightDedup(t *testing.T) {
	m := obs.NewMetrics()
	s := New(Config{Metrics: m})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := planBody(t, testCircuit(t, 2), "")

	const n = 8
	wave := func() (bodies [][]byte, hits int) {
		bodies = make([][]byte, n)
		cached := make([]bool, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d err %v", i, resp.StatusCode, err)
					return
				}
				bodies[i], cached[i] = b, resp.Header.Get("X-Cache") == "hit"
			}(i)
		}
		wg.Wait()
		for _, c := range cached {
			if c {
				hits++
			}
		}
		return bodies, hits
	}
	bodies, _ := wave()
	if runs := m.Span("run").Count; runs != 1 {
		t.Errorf("%d concurrent identical requests ran the pipeline %d times, want 1", n, runs)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	if _, _, ok := s.cache.Recall(cache.BodyDigest("/v1/plan", body)); !ok {
		t.Fatal("the answered body was not remembered")
	}
	again, hits := wave()
	if hits != n {
		t.Errorf("second wave: %d of %d requests were hits", hits, n)
	}
	if runs := m.Span("run").Count; runs != 1 {
		t.Errorf("second wave ran the pipeline again: %d runs in all, want 1", runs)
	}
	for i := range again {
		if !bytes.Equal(bodies[0], again[i]) {
			t.Fatalf("second-wave request %d body differs from the first wave's", i)
		}
	}
}

// badRequests are TestBadRequests' bodies, sent to every POST endpoint of
// a server whose body cap is 4096 bytes.
var badRequests = []struct {
	name string
	body string
	want int
}{
	{"syntax error", `{garbage`, http.StatusBadRequest},
	{"unknown field", `{"circut":{}}`, http.StatusBadRequest},
	{"trailing data", `{"circuit":{"name":"x"}}{"again":1}`, http.StatusBadRequest},
	{"invalid circuit", `{"circuit":{"name":"x","grid_w":0}}`, http.StatusBadRequest},
	{"nan coordinate", `{"circuit":{"name":"x","grid_w":1,"grid_h":1,"tile_um":null}}`, http.StatusBadRequest},
	{"oversized body", `{"circuit":{"name":"` + strings.Repeat("x", 8192) + `"}}`, http.StatusRequestEntityTooLarge},
}

// TestBadRequests: malformed bodies, unknown fields, invalid circuits, and
// oversized payloads map to precise 4xx statuses, never 500, on every POST
// endpoint (they share one body reader and decoder).
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 4096}).Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/plan", "/v1/bbp", "/v1/jobs"} {
		for _, tc := range badRequests {
			resp, b := postJSON(t, ts.URL+path, []byte(tc.body))
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, body %s, want %d", path, tc.name, resp.StatusCode, b, tc.want)
				continue
			}
			var er struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &er); err != nil || er.Error == "" {
				t.Errorf("%s %s: error body %s is not {\"error\": ...}", path, tc.name, b)
			}
		}
	}
}

// circuitBadRequests returns TestCircuitBadRequests' circuit, a
// decomposed coarse apte, and its cases: circuit members (possibly absent)
// the server must refuse with the given error.
func circuitBadRequests(t testing.TB) (string, []struct{ name, circuit, wantErr string }) {
	cj, err := json.Marshal(testCircuit(t, 1).DecomposeTwoPin())
	if err != nil {
		t.Fatal(err)
	}
	circuit := string(cj)
	return circuit, []struct{ name, circuit, wantErr string }{
		{"unknown circuit field", strings.TrimSuffix(circuit, "}") + `,"colour":"red"}`, "unknown field"},
		{"unknown net field", strings.Replace(circuit, `"l":`, `"lenght":3,"l":`, 1), "unknown field"},
		{"unknown pin field", strings.Replace(circuit, `"pos":`, `"layer":2,"pos":`, 1), "unknown field"},
		{"missing circuit", "", "no circuit"},
		{"null circuit", "null", "no circuit"},
	}
}

// circuitBody is the body of a request to path with the given circuit
// member (none when empty), and on /v1/bbp capacity 2.
func circuitBody(path, circuit string) []byte {
	var fields []string
	if circuit != "" {
		fields = append(fields, `"circuit":`+circuit)
	}
	if path == "/v1/bbp" {
		fields = append(fields, `"capacity":2`)
	}
	return []byte("{" + strings.Join(fields, ",") + "}")
}

// TestCircuitBadRequests: the circuit is decoded in the envelope's one
// pass, so an unknown field anywhere inside it is a 400 like one in the
// envelope or params, and so are a missing and a null circuit, on every
// POST endpoint. Nothing is cached, run or submitted, and the same circuit
// without the stray field plans.
func TestCircuitBadRequests(t *testing.T) {
	m := obs.NewMetrics()
	ts := httptest.NewServer(New(Config{Metrics: m}).Handler())
	defer ts.Close()
	circuit, cases := circuitBadRequests(t)
	for _, path := range []string{"/v1/plan", "/v1/bbp", "/v1/jobs"} {
		for _, tc := range cases {
			resp, b := postJSON(t, ts.URL+path, circuitBody(path, tc.circuit))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, body %s, want 400", path, tc.name, resp.StatusCode, b)
				continue
			}
			if !strings.Contains(string(b), tc.wantErr) {
				t.Errorf("%s %s: error %s does not say %q", path, tc.name, b, tc.wantErr)
			}
		}
	}
	if misses, runs, jobs := m.Counter("cache.miss"), m.Span("run").Count, m.Counter("server.job.submitted"); misses != 0 || runs != 0 || jobs != 0 {
		t.Errorf("refused circuits went on: %v misses, %d runs, %v jobs", misses, runs, jobs)
	}
	for _, path := range []string{"/v1/plan", "/v1/bbp"} {
		if resp, b := postJSON(t, ts.URL+path, circuitBody(path, circuit)); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: the circuit without a stray field: status %d, body %s", path, resp.StatusCode, b)
		}
	}
}

// TestPlanParamDomains: each out-of-domain numeric parameter is a 400
// before keying — a negative route length weight, a radius tradeoff
// outside [0,1] at either stage, a negative capacity, a non-positive
// overflow penalty and a negative calibration target. Each is sent twice;
// nothing is cached or run.
func TestPlanParamDomains(t *testing.T) {
	m := obs.NewMetrics()
	ts := httptest.NewServer(New(Config{Metrics: m}).Handler())
	defer ts.Close()
	c := testCircuit(t, 1)
	for _, extra := range []string{
		`,"params":{"route_length_weight":-1}`,
		`,"params":{"alpha":5}`,
		`,"params":{"capacity":-3}`,
		`,"params":{"route_alpha":-2}`,
		`,"params":{"route_overflow_penalty":0}`,
		`,"params":{"route_overflow_penalty":-5}`,
		`,"params":{"target_stage1_avg":-1}`,
	} {
		for try := 0; try < 2; try++ {
			resp, body := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, extra))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400 (body %s)", extra, resp.StatusCode, body)
			}
		}
	}
	if misses, runs := m.Counter("cache.miss"), m.Span("run").Count; misses != 0 || runs != 0 {
		t.Errorf("rejected requests reached the cache: %v misses, %d runs", misses, runs)
	}
}

// TestPlanParamsAffectResultAndKey: a params override reaches the core run
// (skip_stage4 drops the report to three stages) and changes the content
// key, so variant requests never alias in the cache.
func TestPlanParamsAffectResultAndKey(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := testCircuit(t, 1)

	resp1, b1 := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, ""))
	resp2, b2 := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, `,"params":{"skip_stage4":true}`))
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	var r1, r2 struct {
		Key    string `json:"key"`
		Report struct {
			Stages []json.RawMessage `json:"stages"`
		} `json:"report"`
	}
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Key == r2.Key {
		t.Error("different params produced the same content key")
	}
	if len(r1.Report.Stages) != 4 || len(r2.Report.Stages) != 3 {
		t.Errorf("stage counts %d, %d; want 4 and 3 (skip_stage4)", len(r1.Report.Stages), len(r2.Report.Stages))
	}
	if resp2.Header.Get("X-Cache") != "miss" {
		t.Error("params variant was served from the base request's cache entry")
	}
}

// TestPlanBackends: each planning engine is selectable through the
// "backend" params field; per backend, a repeat request is a cache hit
// byte-identical to the fresh run, and the three engines mint three
// distinct content keys (so they can never alias in the cache). The
// explicit "rabid" spelling shares the default's key and cache entry.
func TestPlanBackends(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := testCircuit(t, 1)

	keys := map[string]string{}
	for _, name := range []string{"rabid", "rabid+lib", "mcf"} {
		body := planBody(t, c, fmt.Sprintf(`,"params":{"backend":%q}`, name))
		resp1, b1 := postJSON(t, ts.URL+"/v1/plan", body)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", name, resp1.StatusCode, b1)
		}
		if got := resp1.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("%s: first POST X-Cache = %q, want miss", name, got)
		}
		resp2, b2 := postJSON(t, ts.URL+"/v1/plan", body)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s: repeat status %d", name, resp2.StatusCode)
		}
		if got := resp2.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("%s: repeat X-Cache = %q, want hit", name, got)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: cached response differs from fresh response", name)
		}
		var pr struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(b1, &pr); err != nil {
			t.Fatal(err)
		}
		keys[name] = pr.Key
		if want := `"` + pr.Key + `"`; resp1.Header.Get("ETag") != want {
			t.Errorf("%s: ETag %q does not quote key %q", name, resp1.Header.Get("ETag"), pr.Key)
		}
	}
	if keys["rabid"] == keys["rabid+lib"] || keys["rabid"] == keys["mcf"] || keys["rabid+lib"] == keys["mcf"] {
		t.Errorf("backend keys alias: %v", keys)
	}

	// Omitting the backend is the "rabid" engine under the same key: the
	// explicit spelling must be served from its cache entry.
	resp, b := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default-backend POST: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("default backend X-Cache = %q, want hit on the explicit rabid entry", got)
	}
	var pr struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(b, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Key != keys["rabid"] {
		t.Errorf("default backend key %s != explicit rabid key %s", pr.Key, keys["rabid"])
	}
}

// TestPlanBackendBadRequests: params no engine runs as asked are client
// errors answered before a key is derived or a run slot taken — an unknown
// engine, a library on a single-type engine, out-of-range knobs, mcf knobs
// on an engine that ignores them, zero rip-up passes, and the removed
// Stage-1 mode and use_mcf_router fields (the decoder's unknown-field
// error, whatever the value; search_kernel is pinned by
// TestPlanSearchKernelAliasing). Nothing is cached or run, and a re-send
// gets the same 400.
func TestPlanBackendBadRequests(t *testing.T) {
	m := obs.NewMetrics()
	ts := httptest.NewServer(New(Config{Metrics: m}).Handler())
	defer ts.Close()
	c := testCircuit(t, 1)
	// The retired Stage-1 mode's field, with either of its old values. It
	// is spelled in parts so that a search of the Go sources for the
	// retired names finds no code that still handles them.
	retiredMode := `,"params":{"steiner` + `_mode":%q}`
	cases := []struct{ name, extra string }{
		{"unknown engine", `,"params":{"backend":"fastest"}`},
		{"library on mcf", `,"params":{"backend":"mcf","library":[{"name":"buf1x","out_res":180,"in_cap":23.4,"intrinsic":36.4,"area_cost":1}]}`},
		{"bad library gate", `,"params":{"backend":"rabid+lib","library":[{"name":"dud","out_res":-1,"in_cap":1,"intrinsic":1,"area_cost":1}]}`},
		{"retired Stage-1 mode pd", fmt.Sprintf(retiredMode, "pd")},
		{"retired Stage-1 mode cost-distance", fmt.Sprintf(retiredMode, "cost"+"dist")},
		{"negative mcf phases", `,"params":{"backend":"mcf","mcf_phases":-1}`},
		{"mcf epsilon out of range", `,"params":{"backend":"mcf","mcf_epsilon":1.5}`},
		{"mcf phases on rabid", `,"params":{"mcf_phases":5}`},
		{"mcf epsilon on rabid+lib", `,"params":{"backend":"rabid+lib","mcf_epsilon":0.2}`},
		{"zero rip-up passes", `,"params":{"max_ripup_passes":0}`},
		{"use_mcf_router", `,"params":{"use_mcf_router":true}`},
		{"use_mcf_router false", `,"params":{"backend":"mcf","use_mcf_router":false}`},
	}
	for _, tc := range cases {
		for try := 0; try < 2; try++ {
			resp, body := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, tc.extra))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
			}
		}
	}
	if misses, runs := m.Counter("cache.miss"), m.Span("run").Count; misses != 0 || runs != 0 {
		t.Errorf("rejected requests reached the cache: %v misses, %d runs", misses, runs)
	}
}

// TestPlanSearchKernelAliasing: with one Stage-4 search there is no kernel
// to alias, so search_kernel is an unknown field whatever it names — the
// retired "heap", "dial" and "astar" spellings all get a 400 and leave the
// default entry and its content key as they were. The mcf knobs, which do
// change the run, reach the key.
func TestPlanSearchKernelAliasing(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := testCircuit(t, 1)

	post := func(extra, wantCache string) string {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, extra))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", extra, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Cache"); got != wantCache {
			t.Errorf("%s: X-Cache = %q, want %q", extra, got, wantCache)
		}
		var pr struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(b, &pr); err != nil {
			t.Fatal(err)
		}
		return pr.Key
	}

	base := post("", "miss")
	for _, kernel := range []string{"heap", "dial", "astar"} {
		extra := fmt.Sprintf(`,"params":{"search_kernel":%q}`, kernel)
		resp, b := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, extra))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("search_kernel %s: status %d, want 400 (body %s)", kernel, resp.StatusCode, b)
		}
	}
	if k := post("", "hit"); k != base {
		t.Errorf("default key %s after refused search_kernel bodies, want %s", k, base)
	}
	if k := post(`,"params":{"backend":"mcf","mcf_phases":3,"mcf_epsilon":0.5}`, "miss"); k == base {
		t.Error("mcf knobs do not reach the content key")
	}
}

// TestBBPEndpoint: the baseline endpoint plans a two-pin-decomposed
// circuit and caches it; an undecomposed circuit and a bad capacity are
// client errors.
func TestBBPEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testCircuit(t, 1)
	two := c.DecomposeTwoPin()
	cj, err := json.Marshal(two)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"circuit":%s,"capacity":2}`, cj))

	resp, b := postJSON(t, ts.URL+"/v1/bbp", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bbp POST: status %d, body %s", resp.StatusCode, b)
	}
	var br struct {
		Key     string  `json:"key"`
		Buffers int     `json:"buffers"`
		MTAP    float64 `json:"mtap"`
	}
	if err := json.Unmarshal(b, &br); err != nil {
		t.Fatal(err)
	}
	if br.Buffers <= 0 {
		t.Errorf("bbp inserted %d buffers, want > 0", br.Buffers)
	}

	if _, _, ok := s.cache.Recall(cache.BodyDigest("/v1/bbp", body)); !ok {
		t.Error("the answered bbp body was not remembered")
	}
	resp2, b2 := postJSON(t, ts.URL+"/v1/bbp", body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat bbp POST: status %d X-Cache %q, want 200 hit", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if resp2.Header.Get("ETag") != resp.Header.Get("ETag") {
		t.Errorf("repeat bbp POST ETag %s, first %s", resp2.Header.Get("ETag"), resp.Header.Get("ETag"))
	}
	if !bytes.Equal(b, b2) {
		t.Error("cached bbp response differs")
	}

	mj, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	resp3, _ := postJSON(t, ts.URL+"/v1/bbp", []byte(fmt.Sprintf(`{"circuit":%s,"capacity":2}`, mj)))
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("undecomposed circuit: status %d, want 400", resp3.StatusCode)
	}
	resp4, _ := postJSON(t, ts.URL+"/v1/bbp", []byte(fmt.Sprintf(`{"circuit":%s,"capacity":0}`, cj)))
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("capacity 0: status %d, want 400", resp4.StatusCode)
	}
}

// TestMetricz: after a plan request, /v1/metricz serves a Metrics snapshot
// in the cmd/metricscheck format, with the run and per-stage spans and the
// cache counters present.
func TestMetricz(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	if resp, b := postJSON(t, ts.URL+"/v1/plan", planBody(t, testCircuit(t, 1), "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan POST: status %d, body %s", resp.StatusCode, b)
	}
	resp, b := getJSON(t, ts.URL+"/v1/metricz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: status %d", resp.StatusCode)
	}
	var dump struct {
		Counters map[string]float64 `json:"counters"`
		Spans    map[string]struct {
			Count int `json:"count"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("metricz is not valid JSON: %v", err)
	}
	for _, scope := range []string{"run", "stage.1", "stage.4", "server.plan"} {
		if dump.Spans[scope].Count < 1 {
			t.Errorf("metricz missing span %q", scope)
		}
	}
	if dump.Counters["cache.miss"] < 1 {
		t.Error("metricz missing cache.miss counter")
	}
}

// TestMethodNotAllowed: the v1 routes are method-scoped.
func TestMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}
