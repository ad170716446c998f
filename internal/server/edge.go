// Service-edge telemetry: every request entering the daemon gets a request
// id (X-Request-ID honored in, generated if absent, echoed out), a
// structured JSON access-log line, and per-route latency/size observations
// feeding the obs.Metrics histograms — which is what gives /v1/metricz its
// per-route p50/p95/p99.

package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// requestIDHeader is honored inbound (load balancers and callers propagate
// their own ids) and always set outbound.
const requestIDHeader = "X-Request-ID"

// requestID returns the request's id: the inbound header when present, a
// fresh 64-bit random hex otherwise. The edge middleware has already
// normalized r by the time handlers run, so handlers (and the journal)
// read the header directly.
func requestID(r *http.Request) string { return r.Header.Get(requestIDHeader) }

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// A broken entropy source must not fail requests; degrade to an
		// unidentified marker the access log makes visible.
		return "unidentified"
	}
	return hex.EncodeToString(b[:])
}

// edgeWriter captures the status and body size flowing through the
// middleware, passing Flush through so SSE streaming keeps working.
type edgeWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *edgeWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *edgeWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *edgeWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// edgeScopes are a route label and the three metric scopes the edge
// records under it. They are built once per label, not per request.
type edgeScopes struct {
	label, requests, latency, respBytes string
}

func newEdgeScopes(label string) *edgeScopes {
	return &edgeScopes{
		label:     label,
		requests:  "http.requests." + label,
		latency:   "http.latency_ms." + label,
		respBytes: "http.resp_bytes." + label,
	}
}

// routeTemplates are the path templates of the v1 routes.
var routeTemplates = []string{
	"/v1/plan", "/v1/bbp", "/v1/jobs", "/v1/jobs/{id}", "/v1/jobs/{id}/events",
	"/v1/healthz", "/v1/metricz",
}

// edgeRoutes holds the scopes of every label a standard method and a
// route template make, keyed by the two.
var edgeRoutes = func() map[[2]string]*edgeScopes {
	methods := []string{
		http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace,
	}
	m := map[[2]string]*edgeScopes{}
	for _, tmpl := range routeTemplates {
		for _, method := range methods {
			m[[2]string{method, tmpl}] = newEdgeScopes(method + " " + tmpl)
		}
	}
	return m
}()

var otherScopes = newEdgeScopes("other")

// routeScopes maps a request to the scopes of its route template (never
// the raw path — per-route metrics must not explode into per-id keys). A
// path outside the v1 routes or a nonstandard method gets "other": the
// registry never drops a series, so a label must not come from what the
// client sends.
func routeScopes(r *http.Request) *edgeScopes {
	if sc := edgeRoutes[[2]string{r.Method, routeTemplate(r.URL.Path)}]; sc != nil {
		return sc
	}
	return otherScopes
}

// routeTemplate returns the template of a v1 path, or "" for any other.
func routeTemplate(p string) string {
	switch {
	case strings.HasPrefix(p, "/v1/jobs/"):
		if strings.HasSuffix(p, "/events") {
			return "/v1/jobs/{id}/events"
		}
		return "/v1/jobs/{id}"
	case slices.Contains(routeTemplates, p):
		return p
	}
	return ""
}

// routeLabel maps a request to its route label, "METHOD template" or
// "other".
func routeLabel(r *http.Request) string { return routeScopes(r).label }

// accessLine is one structured access-log record. Field order is fixed by
// the struct, so lines are uniform and machine-parseable.
type accessLine struct {
	Time      string  `json:"time"`
	ID        string  `json:"id"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Route     string  `json:"route"`
	Status    int     `json:"status"`
	Bytes     int64   `json:"bytes"`
	DurMs     float64 `json:"dur_ms"`
	Cache     string  `json:"cache,omitempty"`
	UserAgent string  `json:"user_agent,omitempty"`
}

// edge wraps the route mux with the service-edge telemetry described in
// the file comment. For a streaming route the measured latency spans the
// whole stream, not just the first byte — that is the quantity a
// subscriber experiences.
func (s *Server) edge(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rid := r.Header.Get(requestIDHeader)
		if rid == "" {
			rid = newRequestID()
			r.Header.Set(requestIDHeader, rid)
		}
		w.Header().Set(requestIDHeader, rid)
		ew := &edgeWriter{ResponseWriter: w}
		next.ServeHTTP(ew, r)
		if ew.status == 0 {
			ew.status = http.StatusOK
		}

		route := routeScopes(r)
		durMs := float64(time.Since(t0)) / float64(time.Millisecond)
		obs.Emit(s.metrics, obs.Event{Kind: obs.KindCounter, Scope: route.requests, Net: -1, Value: 1})
		obs.Emit(s.metrics, obs.Event{Kind: obs.KindGauge, Scope: route.latency, Net: -1, Value: durMs})
		obs.Emit(s.metrics, obs.Event{Kind: obs.KindGauge, Scope: route.respBytes, Net: -1, Value: float64(ew.bytes)})

		if s.cfg.AccessLog == nil {
			return
		}
		line, err := json.Marshal(accessLine{
			Time:      t0.UTC().Format(time.RFC3339Nano),
			ID:        rid,
			Method:    r.Method,
			Path:      r.URL.Path,
			Route:     route.label,
			Status:    ew.status,
			Bytes:     ew.bytes,
			DurMs:     durMs,
			Cache:     ew.Header().Get("X-Cache"),
			UserAgent: r.UserAgent(),
		})
		if err != nil {
			s.count("server.accesslog_error")
			return
		}
		line = append(line, '\n')
		s.logMu.Lock()
		_, werr := s.cfg.AccessLog.Write(line)
		s.logMu.Unlock()
		if werr != nil {
			s.count("server.accesslog_error")
		}
	})
}
