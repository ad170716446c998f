package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/server"
)

// serve-http's traffic: one client connection in a closed loop, in two
// phases. In the hit phase every request re-requests a pre-warmed plan; in
// the miss phase every request sends a circuit under a name the service has
// never seen, so it must plan it. Keeping the classes apart makes every
// metric a property of one class: a blend would weigh hits and misses by a
// request mix that nothing in the repository measures. The phases' lengths
// set only the sample counts. Both phases cycle through the suite circuits
// in seeded orders.
//
// A new circuit is a pre-warmed one under a new name: its content key is
// new, so the service runs the whole pipeline, on the same work as the
// pre-warmed plan, and must return the same report under the new name. One
// connection keeps a single plan running at a time, as in paper-rabid.
const (
	hitPart = 1.0 / 3 // the hit phase's share of the timed window
	slices  = 6       // time slices of a phase, for the quartiles
)

// warmPlan is one pre-warmed plan: its circuit, its request, the response
// body of the miss that computed it, and that response's report re-encoded.
type warmPlan struct {
	name   string
	c      *netlist.Circuit
	body   []byte
	want   []byte
	report []byte
}

// service is the planning service under test, reached over loopback HTTP.
type service struct {
	reg    *obs.Metrics
	timed  *timedHandler
	ts     *httptest.Server
	client *http.Client
	warm   []warmPlan
	heavy  int // the pre-warmed plan with the most nets
	// Quality of the pre-warmed plans' final stage.
	fails, wirelen, overflows float64
}

// timedHandler times the service's handler on the server side of the
// connection while on is set; the client's latency minus this is the
// HTTP transport's share.
type timedHandler struct {
	h  http.Handler
	on atomic.Bool
	mu sync.Mutex
	ms []float64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	ms := msSince(t0)
	t.mu.Lock()
	t.ms = append(t.ms, ms)
	t.mu.Unlock()
}

// planRequest is the POST /v1/plan body the bench sends.
type planRequest struct {
	Circuit *netlist.Circuit `json:"circuit"`
	Params  struct {
		TargetStage1Avg float64 `json:"target_stage1_avg"`
	} `json:"params"`
}

type planResponse struct {
	Key    string       `json:"key"`
	Report *core.Report `json:"report"`
}

// requestBody encodes a plan request for a circuit of the named suite spec
// with that spec's capacity calibration.
func requestBody(c *netlist.Circuit, spec string) ([]byte, error) {
	req := planRequest{Circuit: c}
	req.Params.TargetStage1Avg = exp.ParamsFor(spec).TargetStage1Avg
	return json.Marshal(req)
}

// startService starts a server with a fresh cache and pre-warms it with the
// coarse suite plans, checking each miss. It also times, on the bench side,
// the parse and content-key work the server does for every request.
// MaxInflight 1 matches the one connection, so admission never rejects.
func startService(cfg config, ops *opCount, parseMs, keyMs *[]float64) (*service, error) {
	s := &service{reg: obs.NewMetrics()}
	srv := server.New(server.Config{MaxInflight: 1, Workers: 1, Metrics: s.reg})
	s.timed = &timedHandler{h: srv.Handler()}
	s.ts = httptest.NewServer(s.timed)
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for _, name := range cfg.inputs {
		g := coarseGrids[name]
		c, err := exp.Generate(name, floorplan.Options{GridW: g[0], GridH: g[1]})
		if err != nil {
			s.close()
			return nil, err
		}
		body, err := requestBody(c, name)
		if err != nil {
			s.close()
			return nil, err
		}
		if err := timeParseKey(body, parseMs, keyMs); err != nil {
			s.close()
			return nil, err
		}
		resp, b, err := s.post(body)
		var pr *planResponse
		if err == nil {
			pr, err = checkMiss(resp, b, c)
		}
		if err == nil {
			err = checkOverflow(pr.Report.Stages)
		}
		if !ops.record(err, "prefill %s", name) {
			continue
		}
		final := pr.Report.Stages[len(pr.Report.Stages)-1]
		s.fails += float64(final.Fails)
		s.wirelen += final.WirelenMm
		s.overflows += float64(final.Overflows)
		rep, err := json.Marshal(pr.Report)
		if err != nil {
			s.close()
			return nil, err
		}
		s.warm = append(s.warm, warmPlan{name: name, c: c, body: body, want: b, report: rep})
		if len(c.Nets) > len(s.warm[s.heavy].c.Nets) {
			s.heavy = len(s.warm) - 1
		}
	}
	if len(s.warm) == 0 {
		s.close()
		return nil, fmt.Errorf("no plan could be pre-warmed")
	}
	return s, nil
}

// timeParseKey does the server's per-request parse and key derivation on a
// request body: netlist.ReadJSONLimit, then backend.Normalize and
// cache.PlanKey.
func timeParseKey(body []byte, parseMs, keyMs *[]float64) error {
	var req struct {
		Circuit json.RawMessage `json:"circuit"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	t0 := time.Now()
	c, err := netlist.ReadJSONLimit(bytes.NewReader(req.Circuit), 0)
	if err != nil {
		return err
	}
	*parseMs = append(*parseMs, msSince(t0))
	t0 = time.Now()
	p, err := backend.Normalize(core.DefaultParams())
	if err != nil {
		return err
	}
	if _, err := cache.PlanKey(c, p); err != nil {
		return err
	}
	*keyMs = append(*keyMs, msSince(t0))
	return nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// post sends one plan request and reads the whole response.
func (s *service) post(body []byte) (*http.Response, []byte, error) {
	resp, err := s.client.Post(s.ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp, b, nil
}

// checkMiss verifies a computed response: marked a miss, keyed by its ETag,
// and a sound report of the circuit sent.
func checkMiss(resp *http.Response, b []byte, c *netlist.Circuit) (*planResponse, error) {
	if x := resp.Header.Get("X-Cache"); x != "miss" {
		return nil, fmt.Errorf("new circuit answered with X-Cache %q", x)
	}
	var pr planResponse
	if err := json.Unmarshal(b, &pr); err != nil {
		return nil, err
	}
	if etag, err := strconv.Unquote(resp.Header.Get("ETag")); err != nil || etag != pr.Key {
		return nil, fmt.Errorf("ETag %q does not match key %q", resp.Header.Get("ETag"), pr.Key)
	}
	if pr.Report == nil {
		return nil, fmt.Errorf("response carries no report")
	}
	return &pr, checkReport(pr.Report, len(c.Nets), c.TotalBufferSites())
}

// checkRenamed verifies a miss on a renamed pre-warmed circuit: apart from
// the circuit's name, its report must equal the pre-warmed plan's.
func (w *warmPlan) checkRenamed(resp *http.Response, b []byte, c *netlist.Circuit) error {
	pr, err := checkMiss(resp, b, c)
	if err != nil {
		return err
	}
	if pr.Report.Circuit != c.Name {
		return fmt.Errorf("report names circuit %q, request %q", pr.Report.Circuit, c.Name)
	}
	pr.Report.Circuit = w.name
	rep, err := json.Marshal(pr.Report)
	if err != nil {
		return err
	}
	if !bytes.Equal(rep, w.report) {
		return fmt.Errorf("report of %s differs from the pre-warmed plan of %s", c.Name, w.name)
	}
	return nil
}

// servePhase is one timed phase of serve-http.
type servePhase struct {
	slices         []window
	log            *spanLog // nil when untraced
	mallocs, bytes uint64   // for the whole phase
}

// phase sends requests back to back for d: renamed pre-warmed circuits
// when miss is set, re-requests of the pre-warmed plans otherwise. next
// numbers the renamed circuits across the run so that every name is new.
// Encoding a renamed circuit happens before its request is timed. A sample's
// input is the pre-warmed plan it (re-)requests.
func (s *service) phase(cfg config, miss bool, d time.Duration, next *int, traced bool, ops *opCount) servePhase {
	var p servePhase
	if traced {
		p.log = newSpanLog()
	}
	seed := cfg.seed<<1 | 1
	if miss {
		seed = cfg.seed << 1
	}
	rng := rand.New(rand.NewSource(seed))
	p.slices = make([]window, slices)
	var order []int // the pre-warmed plans still to request in this cycle
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if p.log != nil {
		p.log.origin = start
	}
	for time.Since(start) < d {
		if len(order) == 0 {
			order = rng.Perm(len(s.warm))
		}
		i := order[0]
		order = order[1:]
		w := &s.warm[i]
		body, name, c := w.body, "request.hit", w.c
		if miss {
			renamed := *w.c
			renamed.Name = fmt.Sprintf("%s~%d", w.name, *next)
			*next++
			var err error
			if body, err = requestBody(&renamed, w.name); err != nil {
				ops.record(err, "encode a renamed circuit")
				continue
			}
			name, c = "request.miss", &renamed
		}
		if p.log != nil {
			p.log.op++
			p.log.begin(name)
		}
		t0 := time.Now()
		resp, b, err := s.post(body)
		lat := msSince(t0)
		if p.log != nil {
			p.log.end(name)
		}
		class := classLight
		if err == nil && miss {
			class = 0
			if i == s.heavy {
				class = classHeavy
			}
			err = w.checkRenamed(resp, b, c)
		} else if err == nil {
			if x := resp.Header.Get("X-Cache"); x != "hit" {
				err = fmt.Errorf("pre-warmed plan answered with X-Cache %q", x)
			} else if !bytes.Equal(b, w.want) {
				err = fmt.Errorf("hit body differs from the miss body for its ETag")
			}
		}
		if ops.record(err, "%s %s", name, c.Name) {
			k := min(int(time.Since(start)*slices/d), slices-1)
			p.slices[k].samples = append(p.slices[k].samples, sample{input: i, class: class, ms: lat})
		}
	}
	runtime.ReadMemStats(&m1)
	p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p
}

// perRequest is a phase's allocation per request: objects and MB.
func (p servePhase) perRequest() (allocs, mb float64, n int) {
	n = planCount(p.slices)
	return ratio(float64(p.mallocs), float64(n)), ratio(float64(p.bytes)/1e6, float64(n)), n
}

// runServe measures serve-http. The hit phase runs first because the miss
// phase's new plans evict the pre-warmed ones from the service's cache.
func runServe(cfg config) (*result, error) {
	ops := &opCount{}
	var parseMs, keyMs, builds []float64
	var s *service
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = startService(cfg, ops, &parseMs, &keyMs); err != nil {
			return nil, fmt.Errorf("start service: %w", err)
		}
		builds = append(builds, time.Since(t0).Seconds())
	}
	defer s.close()
	// Warm-up: one hit per pre-warmed plan.
	t0 := time.Now()
	for _, w := range s.warm {
		_, b, err := s.post(w.body)
		if err == nil && !bytes.Equal(b, w.want) {
			err = fmt.Errorf("hit body differs from the miss body for its ETag")
		}
		ops.record(err, "warm-up %s", w.name)
	}
	warm := time.Since(t0).Seconds()

	next := 0
	res := &result{}
	dHit := time.Duration(float64(cfg.duration()) * hitPart)
	dMiss := cfg.duration() - dHit
	if !cfg.trace {
		hits := s.phase(cfg, false, dHit, &next, false, ops)
		misses := s.phase(cfg, true, dMiss, &next, false, ops)
		var err error
		res.Metrics, err = endToEndValues(misses.slices, hits.slices, setupValue(builds, warm), s.fails, s.wirelen, len(s.warm))
		if err != nil {
			return nil, err
		}
		// Allocation is read for the whole phase, not per slice.
		allocs, mb, n := misses.perRequest()
		setValue(res.Metrics, fixed("allocs_per_plan", "count", allocs, n))
		setValue(res.Metrics, fixed("alloc_mb_per_plan", "MB", mb, n))
		hitAllocs, hitMB, nh := hits.perRequest()
		res.Extra = []value{
			windowed("hits_per_s", "1/s", hits.slices, nh, throughput),
			classQuantile("hit_ms_p99", hits.slices, classLight, 0.99),
			fixed("hit_allocs", "count", hitAllocs, nh),
			fixed("hit_alloc_mb", "MB", hitMB, nh),
			fixed("qor_overflows", "count", s.overflows, len(s.warm)),
		}
	} else {
		// Each phase runs half untraced and half traced.
		s.phase(cfg, false, dHit/2, &next, false, ops)
		reg0 := readRegistry(s.reg)
		s.timed.on.Store(true)
		hits := s.phase(cfg, false, dHit/2, &next, true, ops)
		s.timed.on.Store(false)
		reg1 := readRegistry(s.reg)
		plain := s.phase(cfg, true, dMiss/2, &next, false, ops)
		reg2, gc0 := readRegistry(s.reg), readGC()
		misses := s.phase(cfg, true, dMiss/2, &next, true, ops)
		dHits, dMisses := sub(reg1, reg0), sub(readRegistry(s.reg), reg2)
		log := mergeLogs([]*spanLog{hits.log, misses.log})
		layers := s.layers(hits, misses, dHits, dMisses, gcLayers(gc0, readGC(), log.heap, dMisses["cache.miss"]))
		layers["netlist.parse_ms_p50"] = median(parseMs)
		layers["cache.key_ms_p50"] = median(keyMs)
		layers["trace.overhead_frac"] = 1 - throughput(misses.slices)/throughput(plain.slices)
		res.Metrics = layerValues(layers, planCount(misses.slices))
		res.spans = log
	}
	res.Attempted, res.Failed, res.Errors = ops.attempted, ops.failed, ops.errors
	return res, nil
}

// layers derives the per-layer metrics of serve-http's traced phases from
// the service's registry (dh and dm, its change over the traced hit and
// miss phases) and the bench's own timings. The pipeline's layers are per
// computed plan, over the miss phase; the server's and the cache's are
// over the phase whose requests they serve.
func (s *service) layers(hits, misses servePhase, dh, dm, gc map[string]float64) map[string]float64 {
	plans := dm["cache.miss"]
	requests := float64(planCount(misses.slices))
	m := registryLayers(dm, plans)
	for k, v := range gc {
		m[k] = v
	}
	m["core.unstaged_s"] = ratio(dm["run"]-staged(dm), plans)
	m["trace.accounted_frac"] = ratio(staged(dm), dm["run"])
	m["route.ripup_pops"] = ratio(dm["route.pops.2"], plans)
	m["route.ripup_relaxations"] = ratio(dm["route.relaxations.2"], plans)
	m["cache.hit_ratio"] = ratio(dh["cache.hit"], dh["cache.hit"]+dh["cache.miss"])
	m["cache.coalesced"] = ratio(dm["cache.coalesced"], requests)
	m["cache.evict"] = ratio(dm["cache.evict"], requests)
	m["server.rejected"] = ratio(dh["server.rejected"]+dm["server.rejected"], float64(planCount(hits.slices))+requests)
	s.timed.mu.Lock()
	m["server.plan_ms_p50"] = median(s.timed.ms)
	s.timed.mu.Unlock()
	m["http.client_overhead_ms"] = median(latencies(hits.slices, -1)) - m["server.plan_ms_p50"]
	var kb []float64
	for _, w := range s.warm {
		kb = append(kb, float64(len(w.want))/1024)
	}
	m["server.resp_kb_p50"] = median(kb)
	// Stage allocation, the engines' own latencies and report encoding are
	// inside the server, which the bench sees only through the registry.
	for _, k := range []string{"server.serialize_ms_p50",
		"backend.rabid_ms_p50", "backend.rabid-lib_ms_p50", "backend.mcf_ms_p50"} {
		m[k] = 0
	}
	for st := 1; st <= 4; st++ {
		m[fmt.Sprintf("core.stage%d_allocs", st)] = 0
		m[fmt.Sprintf("core.stage%d_alloc_mb", st)] = 0
	}
	return m
}
