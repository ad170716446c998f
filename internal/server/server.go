// Package server is the planning service layer: a stdlib-only HTTP/JSON
// daemon exposing the RABID pipeline (POST /v1/plan), the BBP/FR baseline
// (POST /v1/bbp), a health probe (GET /v1/healthz), and a telemetry
// snapshot (GET /v1/metricz).
//
// Admission is bounded: at most MaxInflight planning runs execute
// concurrently, at most QueueDepth more wait for a slot, and beyond that
// requests fail fast with 429 and a Retry-After header instead of piling
// onto the queue. Admission happens inside the cache's singleflight
// compute, so cache hits and coalesced duplicate requests never consume a
// run slot — only real core runs do.
//
// Every response body is deterministic: reports are serialized with the
// wall-clock CPU columns zeroed, so the cached bytes of a hit are
// byte-identical to what a fresh run would produce (the property the
// content-addressed cache's soundness rests on). The content key doubles
// as the ETag; the X-Cache header reports hit or miss. A byte-identical
// re-request of a plan or bbp body is answered by the digest of its bytes
// alone, without parsing it again (see recall).
//
// This package reads the wall clock directly (request-latency spans and
// deadline plumbing) and is on the rabidlint clock-exempt list: at the
// service boundary wall time is the quantity being measured, and none of
// it reaches a response body.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/bbp"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/tech"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a sensible default applied by New.
type Config struct {
	// MaxInflight bounds concurrent core runs (default: GOMAXPROCS).
	MaxInflight int
	// QueueDepth bounds runs waiting for a slot beyond MaxInflight
	// (default 16; negative means 0 — reject as soon as all slots are
	// busy).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request body
	// does not set timeout_ms (default 60s).
	DefaultTimeout time.Duration
	// CacheEntries bounds the content-addressed result cache (default
	// 128; see cache.New for the 0 semantics).
	CacheEntries int
	// MaxBodyBytes caps request bodies (default netlist.MaxJSONBytes).
	MaxBodyBytes int64
	// Workers is core.Params.Workers for every run (0 = GOMAXPROCS;
	// results are bit-identical for every value, so this is purely a
	// server resource knob and is excluded from cache keys).
	Workers int
	// Metrics receives the service's telemetry — request spans, cache
	// counters, and the pipeline's own events — and backs /v1/metricz.
	// nil gets a fresh registry.
	Metrics *obs.Metrics
	// MaxJobs bounds the async job table: queued + running + retained
	// finished jobs (default 64). Submissions beyond the bound fail fast
	// with 429 once no finished job can be evicted to make room.
	MaxJobs int
	// JobTTL is how long a finished job's record (terminal status, result,
	// event stream) stays queryable before eviction (default 15m).
	JobTTL time.Duration
	// Journal, when non-nil, receives one append-only entry per
	// successfully completed async job: the verbatim request, the content
	// key, the run's event stream, and the response digest — the
	// replayable run journal cmd/journal verifies. nil disables
	// journaling at zero cost.
	Journal *journal.Writer
	// AccessLog, when non-nil, receives one structured JSON line per HTTP
	// request (request id, route, status, latency, sizes). nil disables
	// the access log at zero cost. Writes are serialized by the server,
	// so any io.Writer works.
	AccessLog io.Writer
}

// errBusy is the admission-rejection sentinel, mapped to 429.
var errBusy = errors.New("server: all run slots busy and queue full")

// Server routes and executes planning requests. Create with New; serve
// via Handler.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	cache   *cache.Cache
	mux     *http.ServeMux

	sem    chan struct{} // one token per running core job
	queued atomic.Int64  // running + waiting admissions

	// pool recycles router workspaces across requests so steady-state
	// plans route without re-growing scratch arrays. Purely mechanism:
	// invisible to cache keys and response bytes.
	pool *route.Pool

	// bodies recycles request-body buffers across requests (see
	// readBody). Like the workspace pool, invisible to keys and bytes.
	bodies sync.Pool

	// jobs is the async job table (see jobs.go).
	jobs *jobTable
	// logMu serializes access-log lines onto cfg.AccessLog.
	logMu sync.Mutex
}

// New builds a Server, applying Config defaults.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	} else if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 128
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = netlist.MaxJSONBytes
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 64
	}
	if cfg.JobTTL <= 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	s := &Server{
		cfg:     cfg,
		metrics: cfg.Metrics,
		cache:   cache.New(cfg.CacheEntries, cfg.Metrics),
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		pool:    route.NewPool(),
		jobs:    newJobTable(cfg.MaxJobs, cfg.JobTTL),
	}
	s.bodies.New = func() any { return new(bytes.Buffer) }
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/bbp", s.handleBBP)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metricz", s.handleMetricz)
	return s
}

// Handler returns the service's HTTP handler: the v1 routes wrapped in the
// service-edge middleware (request IDs, access log, per-route telemetry —
// see edge.go).
func (s *Server) Handler() http.Handler { return s.edge(s.mux) }

// admit acquires a run slot, waiting in the bounded queue. It fails fast
// with errBusy when MaxInflight+QueueDepth admissions are already in the
// system, and with ctx.Err() when the request deadline expires while
// queued.
func (s *Server) admit(ctx context.Context) error {
	if s.queued.Add(1) > int64(s.cfg.MaxInflight+s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.count("server.rejected")
		return errBusy
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return ctx.Err()
	}
}

// release returns an admitted request's run slot.
func (s *Server) release() {
	<-s.sem
	s.queued.Add(-1)
}

// requestContext derives the request's deadline: timeout_ms from the body
// when positive, the configured default otherwise.
func (s *Server) requestContext(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// planRequest is the POST /v1/plan body. Unknown fields are rejected, the
// circuit's own included: decodeRequest decodes the circuit in the same
// pass as the envelope.
type planRequest struct {
	Circuit   *netlist.Circuit `json:"circuit"`
	Params    *planParams      `json:"params,omitempty"`
	TimeoutMs int64            `json:"timeout_ms,omitempty"`
}

// planParams overrides core.DefaultParams field by field; absent fields
// keep the paper's defaults. Workers and the observer are server-owned
// and deliberately not settable per request.
type planParams struct {
	Alpha                *float64 `json:"alpha,omitempty"`
	RouteAlpha           *float64 `json:"route_alpha,omitempty"`
	RouteLengthWeight    *float64 `json:"route_length_weight,omitempty"`
	RouteOverflowPenalty *float64 `json:"route_overflow_penalty,omitempty"`
	MaxRipupPasses       *int     `json:"max_ripup_passes,omitempty"`
	Capacity             *int     `json:"capacity,omitempty"`
	TargetStage1Avg      *float64 `json:"target_stage1_avg,omitempty"`
	SkipStage4           *bool    `json:"skip_stage4,omitempty"`
	DisableDemandTerm    *bool    `json:"disable_demand_term,omitempty"`
	// Backend selects the planning engine ("rabid", "rabid+lib", "mcf";
	// absent or empty = "rabid"). Library optionally overrides the buffer
	// library of "rabid+lib"; parsePlan runs backend.Normalize on the merged
	// parameters, so an empty library gets the default and a library on a
	// single-type engine is a 400.
	Backend *string        `json:"backend,omitempty"`
	Library []tech.LibGate `json:"library,omitempty"`
	// MCFPhases and MCFEpsilon tune the mcf engine (0 = its defaults;
	// non-zero on another engine is a 400). Both are validated by
	// backend.Normalize and reach the content key.
	MCFPhases  *int     `json:"mcf_phases,omitempty"`
	MCFEpsilon *float64 `json:"mcf_epsilon,omitempty"`
}

// apply merges the overrides into p.
func (pp *planParams) apply(p *core.Params) {
	if pp == nil {
		return
	}
	if pp.Alpha != nil {
		p.Alpha = *pp.Alpha
	}
	if pp.RouteAlpha != nil {
		p.RouteOpt.Alpha = *pp.RouteAlpha
	}
	if pp.RouteLengthWeight != nil {
		p.RouteOpt.LengthWeight = *pp.RouteLengthWeight
	}
	if pp.RouteOverflowPenalty != nil {
		p.RouteOpt.OverflowPenalty = *pp.RouteOverflowPenalty
	}
	if pp.MaxRipupPasses != nil {
		p.MaxRipupPasses = *pp.MaxRipupPasses
	}
	if pp.Capacity != nil {
		p.Capacity = *pp.Capacity
	}
	if pp.TargetStage1Avg != nil {
		p.TargetStage1Avg = *pp.TargetStage1Avg
	}
	if pp.SkipStage4 != nil {
		p.SkipStage4 = *pp.SkipStage4
	}
	if pp.DisableDemandTerm != nil {
		p.DisableDemandTerm = *pp.DisableDemandTerm
	}
	if pp.Backend != nil {
		p.Backend = *pp.Backend
	}
	if len(pp.Library) > 0 {
		p.Library = pp.Library
	}
	if pp.MCFPhases != nil {
		p.MCFPhases = *pp.MCFPhases
	}
	if pp.MCFEpsilon != nil {
		p.MCFEpsilon = *pp.MCFEpsilon
	}
}

// planResponse is the POST /v1/plan body: the content key and the run's
// report with the wall-clock CPU columns zeroed, so the bytes are a pure
// function of the request.
type planResponse struct {
	Key    string       `json:"key"`
	Report *core.Report `json:"report"`
}

// validCircuit checks a decoded request's circuit: present, not null, and
// structurally valid.
func validCircuit(c *netlist.Circuit) error {
	if c == nil {
		return errors.New("server: request has no circuit")
	}
	return c.Validate()
}

// parsePlan turns a decoded plan request into the run inputs: the
// validated circuit, the effective parameters (server-owned fields unset —
// the caller attaches Workers, Observer, and WorkspacePool), and the
// content key. Errors are client errors (400).
func parsePlan(req *planRequest) (*netlist.Circuit, core.Params, string, error) {
	c := req.Circuit
	if err := validCircuit(c); err != nil {
		return nil, core.Params{}, "", err
	}
	p := core.DefaultParams()
	req.Params.apply(&p)
	// Normalize before deriving the key: "" and "rabid" must share one
	// content address, "rabid+lib" must have its default library spelled
	// out in the key material, and params no engine could run are a 400
	// that never takes a run slot.
	p, err := backend.Normalize(p)
	if err != nil {
		return nil, core.Params{}, "", err
	}
	key, err := cache.PlanKey(c, p)
	if err != nil {
		return nil, core.Params{}, "", err
	}
	return c, p, key, nil
}

// planBytes runs the selected planning engine and serializes the
// deterministic response body: the report with wall-clock CPU columns
// zeroed, keyed by the content address. Every service path that computes a
// plan — sync, async job, or journal replay — funnels through here, so
// their bytes can never diverge.
func planBytes(ctx context.Context, c *netlist.Circuit, p core.Params, key string) ([]byte, error) {
	res, err := backend.Plan(ctx, c, p)
	if err != nil {
		return nil, err
	}
	rep, err := res.Report()
	if err != nil {
		return nil, err
	}
	for i := range rep.Stages {
		rep.Stages[i].CPUSeconds = 0
	}
	return json.Marshal(planResponse{Key: key, Report: rep})
}

// ExecutePlan parses a /v1/plan- or /v1/jobs-shaped request body and runs
// it to the deterministic response bytes, with o (may be nil) attached as
// the run's observer. This is the journal-replay entry point: cmd/journal
// feeds a recorded request back through exactly the code path the service
// used, so a digest match is a real byte-identity statement. The body's
// timeout_ms is ignored — the caller's ctx governs.
func ExecutePlan(ctx context.Context, reqBody []byte, workers int, o obs.Observer) (key string, body []byte, err error) {
	var req planRequest
	if err := decodeRequest(reqBody, &req); err != nil {
		return "", nil, err
	}
	c, p, key, err := parsePlan(&req)
	if err != nil {
		return "", nil, err
	}
	p.Workers = workers
	p.Observer = o
	body, err = planBytes(ctx, c, p, key)
	return key, body, err
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer s.span("server.plan", t0)
	buf, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer s.putBody(buf)
	raw := buf.Bytes()
	digest := cache.BodyDigest("/v1/plan", raw)
	if s.recall(w, digest) {
		return
	}
	var req planRequest
	if !s.decode(w, raw, &req) {
		return
	}
	c, p, key, err := parsePlan(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	p.Workers = s.cfg.Workers
	p.Observer = s.metrics
	p.WorkspacePool = s.pool
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	body, hit, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		if err := s.admit(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		return planBytes(ctx, c, p, key)
	})
	s.answer(w, digest, key, body, hit, err)
}

// bbpRequest is the POST /v1/bbp body. The circuit must already be
// decomposed to two-pin nets (the form the paper's comparison uses).
type bbpRequest struct {
	Circuit   *netlist.Circuit `json:"circuit"`
	Capacity  int              `json:"capacity"`
	TimeoutMs int64            `json:"timeout_ms,omitempty"`
}

// bbpResponse carries the baseline's Table V statistics (CPU excluded —
// responses are deterministic).
type bbpResponse struct {
	Key        string  `json:"key"`
	Buffers    int     `json:"buffers"`
	MTAP       float64 `json:"mtap"`
	WirelenMm  float64 `json:"wirelength_mm"`
	WireMax    float64 `json:"wire_congestion_max"`
	WireAvg    float64 `json:"wire_congestion_avg"`
	Overflows  int     `json:"overflows"`
	MaxDelayPs float64 `json:"max_delay_ps"`
	AvgDelayPs float64 `json:"avg_delay_ps"`
}

func (s *Server) handleBBP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer s.span("server.bbp", t0)
	buf, ok := s.readBody(w, r)
	if !ok {
		return
	}
	defer s.putBody(buf)
	raw := buf.Bytes()
	digest := cache.BodyDigest("/v1/bbp", raw)
	if s.recall(w, digest) {
		return
	}
	var req bbpRequest
	if !s.decode(w, raw, &req) {
		return
	}
	c := req.Circuit
	if err := validCircuit(c); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// BBP's own preconditions are client input problems: report them as
	// 400 up front rather than 500 out of the run.
	if req.Capacity < 1 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: capacity %d < 1", req.Capacity))
		return
	}
	for _, n := range c.Nets {
		if len(n.Sinks) != 1 {
			s.fail(w, http.StatusBadRequest,
				fmt.Errorf("server: net %d has %d sinks; POST a two-pin-decomposed circuit", n.ID, len(n.Sinks)))
			return
		}
	}
	key, err := cache.BBPKey(c, req.Capacity, core.DefaultParams().Tech)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	body, hit, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		if err := s.admit(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		// The baseline has no internal checkpoints; honor the deadline at
		// least at the admission boundary.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := bbp.Run(c, req.Capacity, core.DefaultParams().Tech, s.metrics)
		if err != nil {
			return nil, err
		}
		return json.Marshal(bbpResponse{
			Key:        key,
			Buffers:    res.Buffers,
			MTAP:       res.MTAP,
			WirelenMm:  res.WirelenMm,
			WireMax:    res.WireMax,
			WireAvg:    res.WireAvg,
			Overflows:  res.Overflows,
			MaxDelayPs: res.MaxDelayPs,
			AvgDelayPs: res.AvgDelayPs,
		})
	})
	s.answer(w, digest, key, body, hit, err)
}

// healthzResponse reports liveness, admission pressure, cache occupancy,
// and async-job load — everything a load balancer needs to see saturation
// coming before requests start bouncing with 429.
type healthzResponse struct {
	Status   string `json:"status"`
	Inflight int    `json:"inflight"`
	Queued   int64  `json:"queued"`
	Capacity int    `json:"capacity"`
	Cache    struct {
		Entries  int `json:"entries"`
		Capacity int `json:"capacity"`
	} `json:"cache"`
	Jobs struct {
		Queued   int `json:"queued"`
		Running  int `json:"running"`
		Finished int `json:"finished"`
		Capacity int `json:"capacity"`
	} `json:"jobs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:   "ok",
		Inflight: len(s.sem),
		Queued:   s.queued.Load(),
		Capacity: s.cfg.MaxInflight + s.cfg.QueueDepth,
	}
	resp.Cache.Entries = s.cache.Len()
	resp.Cache.Capacity = s.cache.Cap()
	queued, running, finished := s.jobs.counts()
	resp.Jobs.Queued = queued
	resp.Jobs.Running = running
	resp.Jobs.Finished = finished
	resp.Jobs.Capacity = s.cfg.MaxJobs
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.metrics.WriteJSON(w); err != nil {
		// Headers are gone; nothing to do but note it in telemetry.
		s.count("server.metricz_write_error")
	}
}

// decodeBody reads a size-capped request body and decodes it into dst (see
// readBody and decode). It writes the error response itself and reports
// whether both succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst envelope) bool {
	buf, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	defer s.putBody(buf)
	return s.decode(w, buf.Bytes(), dst)
}

// maxPooledBody is the largest request-body buffer putBody keeps for
// reuse. A larger one is left to the garbage collector, so that one huge
// request does not pin its buffer in the pool.
const maxPooledBody = 1 << 20

// readBody reads the whole request body, capped at MaxBodyBytes, into a
// buffer drawn from the server's pool. The buffer grows as bytes arrive
// rather than being sized from Content-Length: the client sets that
// header, so trusting it would let one request buy an allocation of the
// full cap. It writes the error response itself (413 over the cap) and
// reports whether reading succeeded.
//
// On success the handler owns the buffer until it hands it back with
// putBody, and nothing may read its bytes after that. What outlives the
// handler is copied first: the body digest hashes the bytes, the decoder
// builds the circuit from them, and the job path journals a re-marshalled
// request.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := s.bodies.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		s.putBody(buf)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("server: request body exceeds %d bytes", tooBig.Limit))
			return nil, false
		}
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: decode request: %w", err))
		return nil, false
	}
	return buf, true
}

// putBody returns a request-body buffer to the pool, unless it grew past
// maxPooledBody.
func (s *Server) putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		s.bodies.Put(buf)
	}
}

// decode decodes a request body into dst (see decodeRequest), writing the
// 400 response itself on failure.
func (s *Server) decode(w http.ResponseWriter, raw []byte, dst envelope) bool {
	if err := decodeRequest(raw, dst); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// envelope is a POST body type: decodeStrict hands its circuit to the
// netlist decoder and each of its other members, by JSON name, to
// encoding/json.
type envelope interface {
	// setCircuit stores the decoded circuit.
	setCircuit(c *netlist.Circuit)
	// member returns a pointer to the field of the member with the given
	// JSON name, other than the circuit, and the member's bit in a set of
	// members seen; nil for a name the body type does not have.
	member(name []byte) (any, uint)
	// reset zeroes the request.
	reset()
}

func (r *planRequest) setCircuit(c *netlist.Circuit) { r.Circuit = c }
func (r *planRequest) reset()                        { *r = planRequest{} }
func (r *planRequest) member(name []byte) (any, uint) {
	switch string(name) {
	case "params":
		return &r.Params, 1
	case "timeout_ms":
		return &r.TimeoutMs, 2
	}
	return nil, 0
}

func (r *bbpRequest) setCircuit(c *netlist.Circuit) { r.Circuit = c }
func (r *bbpRequest) reset()                        { *r = bbpRequest{} }
func (r *bbpRequest) member(name []byte) (any, uint) {
	switch string(name) {
	case "capacity":
		return &r.Capacity, 1
	case "timeout_ms":
		return &r.TimeoutMs, 2
	}
	return nil, 0
}

// decoders recycles the strict decoder's scratch across requests. Like
// the body pool, it is invisible to keys and bytes.
var decoders = sync.Pool{New: func() any { return new(netlist.Decoder) }}

// decodeRequest decodes one request JSON object into dst. A body in the
// canonical subset (see netlist.Decoder) is decoded by decodeStrict,
// without a copy of the body and with the circuit built into a few slabs;
// any other body, from its first byte outside the subset, is decoded
// afresh by decodeJSON. The two agree wherever the strict path accepts
// (FuzzDecodeRequest), so which path ran never shows in a decoded value,
// an accepted body or an error message.
func decodeRequest(raw []byte, dst envelope) error {
	d := decoders.Get().(*netlist.Decoder)
	ok := decodeStrict(d, raw, dst)
	if len(raw) <= maxPooledBody {
		decoders.Put(d)
	}
	if ok {
		return nil
	}
	dst.reset()
	return decodeJSON(raw, dst)
}

// decodeStrict decodes raw into dst if the body lies in the canonical
// subset: the circuit through d, each other member through encoding/json
// under DisallowUnknownFields, as decodeJSON decodes it. It reports false
// at the first byte outside the subset and at a member encoding/json
// refuses, with dst then partly filled.
func decodeStrict(d *netlist.Decoder, raw []byte, dst envelope) bool {
	var seen uint
	c, ok := d.DecodeEnvelope(raw, func(name, value []byte) (int, bool) {
		field, bit := dst.member(name)
		if field == nil || seen&bit != 0 {
			return 0, false
		}
		seen |= bit
		dec := json.NewDecoder(bytes.NewReader(value))
		dec.DisallowUnknownFields()
		if dec.Decode(field) != nil {
			return 0, false
		}
		return int(dec.InputOffset()), true
	})
	if ok {
		dst.setCircuit(c)
	}
	return ok
}

// decodeJSON decodes one request JSON object into dst in one pass,
// rejecting unknown fields at any depth (the circuit's included) and
// trailing data.
func decodeJSON(raw []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil && dec.More() {
		err = errors.New("server: trailing data after request JSON")
	}
	if err != nil {
		return fmt.Errorf("server: decode request: %w", err)
	}
	return nil
}

// recall answers a byte-identical re-request of a plan or bbp body from
// the cache's alias table, and reports whether it did. This is sound
// because, for a fixed server, a response is a function of the endpoint
// and the body bytes, and an alias is recorded (answer) only after those
// exact bytes were parsed, validated and answered under its key.
func (s *Server) recall(w http.ResponseWriter, digest cache.Digest) bool {
	key, body, ok := s.cache.Recall(digest)
	if ok {
		s.reply(w, key, body, true, nil)
	}
	return ok
}

// answer replies with the outcome of a plan or bbp request that took the
// full path. A success also remembers that the body with this digest
// resolved to key; a failure is never remembered, so its next send takes
// the full path again.
func (s *Server) answer(w http.ResponseWriter, digest cache.Digest, key string, body []byte, hit bool, err error) {
	if err == nil {
		s.cache.Remember(digest, key)
	}
	s.reply(w, key, body, hit, err)
}

// reply writes a completed plan/bbp outcome: the deterministic body with
// cache metadata on a success, the mapped error otherwise.
func (s *Server) reply(w http.ResponseWriter, key string, body []byte, hit bool, err error) {
	if err != nil {
		s.fail(w, statusOf(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", strconv.Quote(key))
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.count("server.write_error")
	}
}

// statusOf maps a run/admission error to its HTTP status: 429 for a full
// queue, 504 for a deadline that expired (queued or mid-run), 503 for a
// request cancelled by the client, 500 otherwise.
func statusOf(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorResponse is the JSON error body of every non-200 response.
type errorResponse struct {
	Error string `json:"error"`
}

// fail writes the error response, adding Retry-After on 429 so clients
// back off instead of hammering a saturated queue.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(b); err != nil {
		s.count("server.write_error")
	}
}

// span records one request's wall-clock latency under scope.
func (s *Server) span(scope string, t0 time.Time) {
	obs.Emit(s.metrics, obs.Event{Kind: obs.KindSpanBegin, Scope: scope, Net: -1})
	obs.Emit(s.metrics, obs.Event{Kind: obs.KindSpanEnd, Scope: scope, Net: -1, Dur: time.Since(t0)})
}

func (s *Server) count(scope string) {
	obs.Emit(s.metrics, obs.Event{Kind: obs.KindCounter, Scope: scope, Net: -1, Value: 1})
}
