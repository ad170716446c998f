// Async job API: the submit → 202 + id → poll / stream / cancel surface
// over the same planning pipeline POST /v1/plan runs synchronously.
//
//	POST   /v1/jobs             accepts a /v1/plan body, returns 202 + id
//	GET    /v1/jobs/{id}        lifecycle status; embeds the result when done
//	GET    /v1/jobs/{id}/events Server-Sent Events: the run's obs event
//	                            stream as JSON-lines payloads, byte-identical
//	                            to the -events sink for the same run; a
//	                            subscriber joining mid-run receives the full
//	                            prefix then the live tail, no gaps, no
//	                            duplicates
//	DELETE /v1/jobs/{id}        cooperative cancellation
//
// Lifecycle: queued → running → done | failed | cancelled. A job whose key
// is already resident (or whose run another request is computing) goes
// queued → done without ever running the pipeline itself — the cache and
// singleflight layers apply to jobs exactly as they do to /v1/plan.
//
// The job table is bounded (Config.MaxJobs) and finished jobs are evicted
// after Config.JobTTL, oldest-finished-first when the table is full;
// active jobs are never evicted, and a table full of active jobs rejects
// new submissions with 429.

package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Job lifecycle states.
const (
	jobQueued    = "queued"
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// job is one async planning run.
type job struct {
	id      string
	reqID   string
	key     string
	created time.Time

	cancel context.CancelFunc
	log    *eventLog     // the run's JSON-lines event stream
	doneCh chan struct{} // closed at the terminal transition

	mu       sync.Mutex
	state    string
	finished time.Time // terminal transition, drives TTL eviction
	result   []byte    // deterministic response body when state == done
	hit      bool
	err      error
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// finish records the terminal outcome and wakes every waiter/subscriber.
func (j *job) finish(state string, result []byte, hit bool, err error, now time.Time) {
	j.mu.Lock()
	j.state = state
	j.result = result
	j.hit = hit
	j.err = err
	j.finished = now
	j.mu.Unlock()
	close(j.doneCh)
}

// snapshot returns the fields the status endpoints render, consistently.
func (j *job) snapshot() (state string, result []byte, hit bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.hit, j.err
}

func (j *job) terminal() bool {
	select {
	case <-j.doneCh:
		return true
	default:
		return false
	}
}

// eventLog is the append-only byte log of one job's JSON-lines event
// stream, with broadcast wakeups for streaming subscribers. The JSONLines
// sink writes one complete line per Observe call, so the buffer always
// ends on a line boundary; subscribers read by byte offset, which is what
// makes a mid-run join gap-free and duplicate-free by construction.
type eventLog struct {
	mu   sync.Mutex
	buf  []byte
	wake chan struct{}
}

func newEventLog() *eventLog { return &eventLog{wake: make(chan struct{})} }

// Write implements io.Writer for the JSONLines sink; each call appends one
// complete event line and wakes blocked subscribers.
func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.buf = append(l.buf, p...)
	close(l.wake)
	l.wake = make(chan struct{})
	l.mu.Unlock()
	return len(p), nil
}

// read returns the bytes from offset off, or — when nothing new is
// available — a wake channel that closes on the next append. The returned
// slice is capacity-capped, so later appends can never alias into it.
func (l *eventLog) read(off int) ([]byte, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if off < len(l.buf) {
		return l.buf[off:len(l.buf):len(l.buf)], nil
	}
	return nil, l.wake
}

// bytes snapshots the full stream (for journaling, after the run is done).
func (l *eventLog) bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf[:len(l.buf):len(l.buf)]
}

// jobTable is the bounded id → job registry with TTL eviction of finished
// jobs.
type jobTable struct {
	mu   sync.Mutex
	max  int
	ttl  time.Duration
	jobs map[string]*job
}

func newJobTable(max int, ttl time.Duration) *jobTable {
	return &jobTable{max: max, ttl: ttl, jobs: map[string]*job{}}
}

// purge drops finished jobs older than the TTL; callers hold mu.
func (t *jobTable) purge(now time.Time) {
	for id, j := range t.jobs {
		if j.terminal() {
			j.mu.Lock()
			expired := now.Sub(j.finished) > t.ttl
			j.mu.Unlock()
			if expired {
				delete(t.jobs, id)
			}
		}
	}
}

// add registers a new job, evicting the oldest finished job if the table
// is full. It reports false when every resident job is still active — the
// submission must then be rejected, not queued unboundedly.
func (t *jobTable) add(j *job, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.purge(now)
	if len(t.jobs) >= t.max {
		var oldest *job
		for _, cand := range t.jobs {
			if !cand.terminal() {
				continue
			}
			if oldest == nil || cand.finished.Before(oldest.finished) {
				oldest = cand
			}
		}
		if oldest == nil {
			return false
		}
		delete(t.jobs, oldest.id)
	}
	t.jobs[j.id] = j
	return true
}

// get looks a job up, purging expired records first so a dead id is a
// clean 404 rather than a stale answer.
func (t *jobTable) get(id string, now time.Time) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.purge(now)
	j, ok := t.jobs[id]
	return j, ok
}

// counts reports queued/running/finished occupancy for /v1/healthz.
func (t *jobTable) counts() (queued, running, finished int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.jobs {
		j.mu.Lock()
		switch j.state {
		case jobQueued:
			queued++
		case jobRunning:
			running++
		default:
			finished++
		}
		j.mu.Unlock()
	}
	return queued, running, finished
}

// newJobID returns a 128-bit random hex id. Job ids are transient service
// handles — deliberately not content-derived, so two submissions of the
// same problem are distinct jobs sharing one cached computation.
func newJobID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// jobSubmitResponse is the 202 body of POST /v1/jobs.
type jobSubmitResponse struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// jobStatusResponse is the GET /v1/jobs/{id} body. Result is embedded only
// in the done state and is byte-identical to the /v1/plan response for the
// same request.
type jobStatusResponse struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	State  string          `json:"state"`
	Cache  string          `json:"cache,omitempty"`
	Events int             `json:"events"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer s.span("server.job.submit", t0)
	var req planRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Journal the decoded request re-serialized, not the wire bytes: this
	// canonical form, the circuit re-marshalled from its decoded struct
	// included, is what ExecutePlan replays and what recorded journals
	// hold. Without a journal nothing reads it, so it is not built.
	var reqBody []byte
	if s.cfg.Journal != nil {
		var err error
		if reqBody, err = json.Marshal(&req); err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
	}
	c, p, key, err := parsePlan(&req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	id, err := newJobID()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	// The job outlives this request: its deadline derives from the body's
	// timeout_ms (or the server default), never from r.Context().
	d := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		d = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	j := &job{
		id:      id,
		reqID:   requestID(r),
		key:     key,
		created: time.Now(),
		cancel:  cancel,
		log:     newEventLog(),
		doneCh:  make(chan struct{}),
		state:   jobQueued,
	}
	if !s.jobs.add(j, time.Now()) {
		cancel()
		s.count("server.job.rejected")
		s.fail(w, http.StatusTooManyRequests,
			fmt.Errorf("server: job table full (%d active jobs)", s.cfg.MaxJobs))
		return
	}
	s.count("server.job.submitted")
	go s.runJob(ctx, j, c, p, reqBody)
	w.Header().Set("Location", "/v1/jobs/"+id)
	s.writeJSON(w, http.StatusAccepted, jobSubmitResponse{
		ID:        id,
		Key:       key,
		State:     jobQueued,
		StatusURL: "/v1/jobs/" + id,
		EventsURL: "/v1/jobs/" + id + "/events",
	})
}

// runJob executes one async job on its own goroutine: the identical
// cache/singleflight/admission path as /v1/plan, with the run's observer
// teed into the job's event log so subscribers see the live stream. On
// success the job is journaled.
func (s *Server) runJob(ctx context.Context, j *job, c *netlist.Circuit, p core.Params, reqBody []byte) {
	defer j.cancel()
	sink := obs.NewJSONLines(j.log)
	body, hit, err := s.cache.Do(ctx, j.key, func() ([]byte, error) {
		if err := s.admit(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		j.setState(jobRunning)
		run := p
		run.Workers = s.cfg.Workers
		run.Observer = obs.Multi(s.metrics, sink)
		run.WorkspacePool = s.pool
		return planBytes(ctx, c, run, j.key)
	})
	now := time.Now()
	switch {
	case err == nil:
		// Journal before the terminal transition: once the status endpoint
		// reports done, the journal entry is already durable.
		s.journalJob(j, reqBody, body, hit)
		j.finish(jobDone, body, hit, nil, now)
	case ctx.Err() != nil && errors.Is(err, context.Canceled):
		j.finish(jobCancelled, nil, false, err, now)
	default:
		j.finish(jobFailed, nil, false, err, now)
	}
}

// journalJob appends a completed job to the run journal, if one is
// configured. The event stream is recorded only when this job's run
// actually executed the pipeline (a hit or coalesced job streamed no
// events of its own). Journal failures never fail the job — they are
// surfaced as the server.journal_error counter.
func (s *Server) journalJob(j *job, reqBody, result []byte, hit bool) {
	if s.cfg.Journal == nil {
		return
	}
	e := journal.Entry{
		ID:           j.id,
		RequestID:    j.reqID,
		Kind:         "plan",
		Key:          j.key,
		UnixMs:       time.Now().UnixMilli(),
		CacheHit:     hit,
		Request:      reqBody,
		ResultSHA256: journal.Digest(result),
	}
	if stream := j.log.bytes(); !hit && len(stream) > 0 {
		e.Events = journal.SplitLines(stream)
		e.EventsSHA256 = journal.Digest(stream)
	}
	if err := s.cfg.Journal.Append(e); err != nil {
		s.count("server.journal_error")
	}
}

// lookupJob resolves {id} or writes a 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id, time.Now())
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("server: no job %q (unknown, expired, or evicted)", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, jobStatus(j))
}

// jobStatus renders a job's current lifecycle snapshot.
func jobStatus(j *job) jobStatusResponse {
	state, result, hit, err := j.snapshot()
	resp := jobStatusResponse{
		ID:     j.id,
		Key:    j.key,
		State:  state,
		Events: len(j.log.bytes()),
	}
	if state == jobDone {
		if hit {
			resp.Cache = "hit"
		} else {
			resp.Cache = "miss"
		}
		resp.Result = result
	}
	if err != nil {
		resp.Error = err.Error()
	}
	return resp
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	// Cancelling a terminal job is a no-op; otherwise the run aborts at
	// its next core checkpoint and the job settles as cancelled. The
	// response reports the state at cancellation time — clients poll the
	// status URL to observe the terminal transition.
	j.cancel()
	s.count("server.job.cancelled")
	s.writeJSON(w, http.StatusOK, jobStatus(j))
}

// handleJobEvents streams a job's event log as Server-Sent Events. Each
// telemetry event is one unnamed SSE message whose data payload is exactly
// one JSON line of the deterministic event stream — concatenating the
// payloads reproduces the -events sink bytes for the run. Lifecycle
// transitions are sent as named "status" events, and a final named "done"
// event carries the terminal status so clients know to disconnect.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("server: response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	writeStatus := func(name, state string) bool {
		_, err := fmt.Fprintf(w, "event: %s\ndata: {\"state\":%q}\n\n", name, state)
		return err == nil
	}
	lastState, _, _, _ := j.snapshot()
	if !writeStatus("status", lastState) {
		return
	}
	fl.Flush()

	off := 0
	for {
		chunk, wake := j.log.read(off)
		if len(chunk) > 0 {
			// The buffer always ends on a line boundary; frame each line
			// as one SSE data payload.
			for len(chunk) > 0 {
				nl := 0
				for nl < len(chunk) && chunk[nl] != '\n' {
					nl++
				}
				if _, err := fmt.Fprintf(w, "data: %s\n\n", chunk[:nl]); err != nil {
					return
				}
				if nl < len(chunk) {
					nl++
				}
				off += nl
				chunk = chunk[nl:]
			}
			fl.Flush()
			continue
		}
		if state, _, _, _ := j.snapshot(); state != lastState {
			lastState = state
			if !writeStatus("status", state) {
				return
			}
			fl.Flush()
		}
		if j.terminal() {
			// Drain any events that landed between the last read and the
			// terminal transition before closing out.
			if tail, _ := j.log.read(off); len(tail) > 0 {
				continue
			}
			state, _, _, jerr := j.snapshot()
			if jerr != nil {
				fmt.Fprintf(w, "event: done\ndata: {\"state\":%q,\"error\":%q}\n\n", state, jerr.Error())
			} else {
				writeStatus("done", state)
			}
			fl.Flush()
			return
		}
		select {
		case <-wake:
		case <-j.doneCh:
		case <-r.Context().Done():
			return
		}
	}
}
