package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/floorplan"
	"repro/internal/netlist"
)

// suiteCircuit generates the named suite circuit at a coarse tiling.
func suiteCircuit(t testing.TB, name string, w, h int) *netlist.Circuit {
	t.Helper()
	spec, err := floorplan.BySuiteName(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{GridW: w, GridH: h})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// serveOnce sends one POST straight to the handler and returns the
// recorded response.
func serveOnce(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// discardWriter is a ResponseWriter that keeps headers and status but
// drops the body, so that an allocation count is the handler's own.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestRecallAllocBound: a byte-identical re-request costs about the same
// allocations whatever the size of the circuit it names, because it is
// answered from the alias table, not parsed. hp has 68 nets and playout
// 1,294; parsing the playout body allocates thousands of objects more than
// parsing the hp body. The body is read into a pooled buffer, so once the
// pool holds one large enough, reading does not grow with the size either.
func TestRecallAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	h := New(Config{}).Handler()
	allocs := map[string]float64{}
	for _, tc := range []struct {
		name string
		w, h int
	}{{"hp", 10, 10}, {"playout", 11, 10}} {
		body := planBody(t, suiteCircuit(t, tc.name, tc.w, tc.h), "")
		for _, want := range []string{"miss", "hit"} {
			if rec := serveOnce(h, "/v1/plan", body); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
				t.Fatalf("%s: status %d X-Cache %q, want 200 %s", tc.name, rec.Code, rec.Header().Get("X-Cache"), want)
			}
		}
		allocs[tc.name] = testing.AllocsPerRun(20, func() {
			w := &discardWriter{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		})
	}
	t.Logf("warmed allocations per hit: hp %.0f, playout %.0f", allocs["hp"], allocs["playout"])
	if d := allocs["playout"] - allocs["hp"]; d > 2 {
		t.Errorf("a playout hit allocates %.0f objects, %.0f more than an hp hit (%.0f); want at most 2 more",
			allocs["playout"], d, allocs["hp"])
	}
}

// TestRecallReformattedBody: the same request with whitespace added is a
// different body, so it is not recalled; it still resolves through the full
// path to the same key, and is a hit with the same ETag and bytes. Once
// answered, it is remembered too.
func TestRecallReformattedBody(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	body := planBody(t, testCircuit(t, 1), "")
	spaced := append([]byte("{ "), body[1:]...)
	miss := serveOnce(h, "/v1/plan", body)
	if miss.Code != http.StatusOK {
		t.Fatalf("first POST: status %d, body %s", miss.Code, miss.Body)
	}
	d := cache.BodyDigest("/v1/plan", spaced)
	if _, _, ok := s.cache.Recall(d); ok {
		t.Fatal("a body never sent was recalled")
	}
	hit := serveOnce(h, "/v1/plan", spaced)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("reformatted POST: status %d X-Cache %q, want 200 hit", hit.Code, hit.Header().Get("X-Cache"))
	}
	if hit.Header().Get("ETag") != miss.Header().Get("ETag") || !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
		t.Error("reformatted request answered with a different ETag or body")
	}
	if key, _, ok := s.cache.Recall(d); !ok || `"`+key+`"` != miss.Header().Get("ETag") {
		t.Errorf("reformatted body not remembered under its key: %q, %v", key, ok)
	}
}

// TestRecallEndpointTag: {"circuit": X} is a valid plan request, but on
// /v1/bbp it asks for capacity 0. Planning it on /v1/plan must not let
// /v1/bbp answer the same bytes with the plan.
func TestRecallEndpointTag(t *testing.T) {
	h := New(Config{}).Handler()
	body := planBody(t, testCircuit(t, 1).DecomposeTwoPin(), "")
	if rec := serveOnce(h, "/v1/plan", body); rec.Code != http.StatusOK {
		t.Fatalf("plan POST: status %d, body %s", rec.Code, rec.Body)
	}
	for i := 0; i < 2; i++ {
		if rec := serveOnce(h, "/v1/bbp", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("bbp POST %d of a planned body: status %d, body %s, want 400", i, rec.Code, rec.Body)
		}
	}
}

// TestRecallSkipsFailures: no failed request is remembered. A 400 is
// answered again with the same 400, and a body answered 429 or 504 takes
// the full path on its next send even once its key is resident.
func TestRecallSkipsFailures(t *testing.T) {
	s := New(Config{MaxInflight: 1, QueueDepth: 1})
	h := s.Handler()

	bad := []byte(`{"circuit":{"name":"x","grid_w":0}}`)
	first := serveOnce(h, "/v1/plan", bad)
	again := serveOnce(h, "/v1/plan", bad)
	if first.Code != http.StatusBadRequest || again.Code != http.StatusBadRequest ||
		!bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
		t.Errorf("invalid circuit sent twice: %d %s, then %d %s; want the same 400",
			first.Code, first.Body, again.Code, again.Body)
	}

	// Three bodies of one request, and so of one key: they differ only in
	// timeout_ms, which never reaches the key.
	c := testCircuit(t, 1)
	busy, late, plain := planBody(t, c, `,"timeout_ms":60000`), planBody(t, c, `,"timeout_ms":1`), planBody(t, c, "")

	// Hold the run slot and the queue: the next run is refused (429).
	s.sem <- struct{}{}
	s.queued.Add(2)
	if rec := serveOnce(h, "/v1/plan", busy); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST: status %d, body %s, want 429", rec.Code, rec.Body)
	}
	// Free the queue slot only: the next run waits past its deadline (504).
	s.queued.Add(-1)
	if rec := serveOnce(h, "/v1/plan", late); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queued POST with timeout_ms 1: status %d, body %s, want 504", rec.Code, rec.Body)
	}
	s.release()

	want := serveOnce(h, "/v1/plan", plain)
	if want.Code != http.StatusOK || want.Header().Get("X-Cache") != "miss" {
		t.Fatalf("plain POST: status %d X-Cache %q, want 200 miss", want.Code, want.Header().Get("X-Cache"))
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{{"429", busy}, {"504", late}} {
		d := cache.BodyDigest("/v1/plan", tc.body)
		if _, _, ok := s.cache.Recall(d); ok {
			t.Errorf("the body answered %s was remembered", tc.name)
		}
		rec := serveOnce(h, "/v1/plan", tc.body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("the body answered %s, re-sent: status %d X-Cache %q, want the resident bytes as a hit",
				tc.name, rec.Code, rec.Header().Get("X-Cache"))
		}
		if _, _, ok := s.cache.Recall(d); !ok {
			t.Errorf("the body answered %s, then 200, was not remembered", tc.name)
		}
	}
}

// TestRecallAfterEviction: a remembered body whose entry was evicted is
// a miss again, recomputes identical bytes, and is recalled after that.
// With two entries, re-requesting b makes a's entry the least recently
// used, so c evicts it while a's alias, the newer one, stays: a stale
// alias that must fall through to the full path.
func TestRecallAfterEviction(t *testing.T) {
	h := New(Config{CacheEntries: 2}).Handler()
	a, b, c := planBody(t, testCircuit(t, 1), ""), planBody(t, testCircuit(t, 2), ""), planBody(t, testCircuit(t, 3), "")
	var first *httptest.ResponseRecorder
	for i, step := range []struct {
		name string
		body []byte
		want string
	}{{"b", b, "miss"}, {"a", a, "miss"}, {"b", b, "hit"}, {"c", c, "miss"}, {"a", a, "miss"}, {"a", a, "hit"}} {
		rec := serveOnce(h, "/v1/plan", step.body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != step.want {
			t.Fatalf("step %d (%s): status %d X-Cache %q, want 200 %s", i, step.name, rec.Code, rec.Header().Get("X-Cache"), step.want)
		}
		if step.name != "a" {
			continue
		}
		if first == nil {
			first = rec
		} else if !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("step %d: a's body differs from its first response", i)
		}
	}
}

// TestBodyPastPoolCap: a body larger than the pooling cap is answered
// correctly, its buffer is dropped rather than pooled, and the small body
// read after it (into a pooled buffer) is answered correctly too, and so
// are both again. The padding is whitespace inside the request object, so
// the large body names the same plan as its unpadded form.
func TestBodyPastPoolCap(t *testing.T) {
	bigCircuit, smallCircuit := testCircuit(t, 1), testCircuit(t, 2)
	want := func(body []byte) *httptest.ResponseRecorder {
		return serveOnce(New(Config{}).Handler(), "/v1/plan", body)
	}
	wantBig, wantSmall := want(planBody(t, bigCircuit, "")), want(planBody(t, smallCircuit, ""))

	s := New(Config{})
	h := s.Handler()
	big := planBody(t, bigCircuit, strings.Repeat(" ", maxPooledBody))
	small := planBody(t, smallCircuit, "")
	for i, tc := range []struct {
		name string
		body []byte
		want *httptest.ResponseRecorder
	}{{"big", big, wantBig}, {"small", small, wantSmall}, {"big", big, wantBig}, {"small", small, wantSmall}} {
		rec := serveOnce(h, "/v1/plan", tc.body)
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") != tc.want.Header().Get("ETag") ||
			!bytes.Equal(rec.Body.Bytes(), tc.want.Body.Bytes()) {
			t.Fatalf("request %d (%s, %d bytes): status %d ETag %s, want 200 %s and the fresh server's body",
				i, tc.name, len(tc.body), rec.Code, rec.Header().Get("ETag"), tc.want.Header().Get("ETag"))
		}
		if tc.name == "big" {
			if b := s.bodies.Get().(*bytes.Buffer); b.Cap() > maxPooledBody {
				t.Fatalf("request %d: a %d-byte buffer was pooled, past the %d-byte cap", i, b.Cap(), maxPooledBody)
			}
		}
	}
}
