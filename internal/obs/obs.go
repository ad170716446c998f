// Package obs is the structured telemetry layer of the RABID pipeline:
// hierarchical trace spans (run → stage → rip-up pass → per-net
// operation), metric counters and gauges, and periodic congestion-heat
// snapshots, all delivered as a single stream of Event values to an
// Observer hook (core.Params.Observer).
//
// Design constraints, in order:
//
//  1. Zero overhead when no observer is attached. Event is a plain value
//     type built on the caller's stack; Emit compiles to a nil compare
//     and a skip, so instrumented hot paths allocate nothing and callers
//     gate even their clock reads behind the same nil check
//     (TestNilObserverZeroAlloc enforces this with AllocsPerRun).
//  2. Deterministic event streams. The pipeline's parallel per-net
//     sections route their events through IndexBuffers, which collects
//     per work-item and flushes in index order after the fan-in barrier,
//     so the stream is identical for every Workers value. The only
//     nondeterministic Event field is Dur (wall clock); the JSON-lines
//     sink omits it unless explicitly asked, keeping exported traces
//     byte-identical across worker counts.
//  3. Standard library only, like the rest of the repository.
//
// Sinks provided here: JSONLines (machine-readable event export),
// Metrics (aggregating counters/gauges/histograms/span registry with an
// expvar-style JSON dump and a human-readable summary), Progress (thin
// io.Writer adapter for coarse progress lines), and Multi (fan-out).
package obs

import (
	"io"
	"sync"
	"time"
)

// Kind discriminates the event taxonomy.
type Kind uint8

const (
	// KindSpanBegin opens a long-lived span (run, stage, rip-up pass).
	KindSpanBegin Kind = iota + 1
	// KindSpanEnd closes a span. Short per-net operations emit only the
	// end event (the begin is implied); Dur carries the wall-clock
	// duration either way.
	KindSpanEnd
	// KindCounter is a monotonic increment of Value for Scope.
	KindCounter
	// KindGauge records the current Value for Scope (last write wins).
	KindGauge
	// KindHeat is a per-tile snapshot (Vals) of a spatial field, e.g.
	// wire congestion after a stage or a rip-up pass.
	KindHeat
	// KindLog is a freeform progress message in Scope, rendered verbatim
	// by the Progress sink (the io.Writer adapter of the experiment
	// harness).
	KindLog
)

// String names the kind for serialization.
func (k Kind) String() string {
	switch k {
	case KindSpanBegin:
		return "span_begin"
	case KindSpanEnd:
		return "span_end"
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHeat:
		return "heat"
	case KindLog:
		return "log"
	}
	return "unknown"
}

// Event is one telemetry record. It is a value type: no event construction
// allocates, so the nil-observer fast path is free.
type Event struct {
	Kind Kind
	// Scope names the span, metric, or snapshot (e.g. "stage",
	// "route.pops", "heat.wire"). Scopes are dot-separated, coarse to
	// fine; see DESIGN.md "Observability" for the full taxonomy.
	Scope string
	// Stage is the pipeline stage (1-4) the event belongs to, 0 outside
	// any stage.
	Stage int
	// Pass is the rip-up (or MCF phase) pass number, 0 when not in a pass.
	Pass int
	// Net is the net index or ID the event concerns, -1 when net-less.
	Net int
	// Value carries the counter delta or gauge reading.
	Value float64
	// Dur is the wall-clock duration of a KindSpanEnd event. It is the
	// only nondeterministic field; deterministic sinks omit it.
	Dur time.Duration
	// Vals is the per-tile field of a KindHeat event (row-major, like
	// tile.Graph indices). Emitters reuse the backing array across
	// snapshots (the router's heat buffer lives in its workspace), so
	// Vals is only valid for the duration of the Observe call: an
	// observer that wants to keep a snapshot must copy it.
	Vals []float64
}

// Observer receives the event stream. Implementations used with the
// pipeline's parallel fan-outs only ever see events from the sequential
// sections or from IndexBuffers.Flush, both single-goroutine; sinks
// shared across concurrent *runs* (the experiment suite fan-out) must be
// safe for concurrent use, as all sinks in this package are.
type Observer interface {
	Observe(Event)
}

// Emit forwards e to o when o is non-nil. This is the instrumentation
// fast path: with no observer configured the call reduces to a nil check,
// and the Event literal never escapes the caller's stack.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Observe(e)
	}
}

// Now is the gated wall clock: it reads time.Now only when an observer is
// attached and returns the zero Time otherwise. Per-net and per-pass
// timing in the pipeline goes through this gate (or the IndexBuffers
// equivalent), which is what rabidlint's wallclock check enforces; the
// only raw, annotated exceptions are the coarse run/stage/BBP CPU timers
// whose readings the tables print even when untapped. Results never
// depend on either kind of reading.
func Now(o Observer) time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since is the gated companion of Now: the elapsed wall time since t when
// an observer is attached, 0 otherwise.
func Since(o Observer, t time.Time) time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(t)
}

// multi fans one stream out to several sinks, in order.
type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Multi combines observers into one; nils are dropped. It returns nil
// when every argument is nil (keeping the zero-overhead fast path) and
// the observer itself when only one remains.
func Multi(os ...Observer) Observer {
	var nz []Observer
	for _, o := range os {
		if o != nil {
			nz = append(nz, o)
		}
	}
	switch len(nz) {
	case 0:
		return nil
	case 1:
		return nz[0]
	}
	return multi(nz)
}

// IndexBuffers makes parallel per-item instrumentation deterministic: each
// worker emits into its own item's buffer (no locks, no cross-item
// ordering), and Flush forwards everything to the observer in item-index
// order after the fan-in barrier. A nil *IndexBuffers (no observer) is a
// valid no-op receiver, so call sites need no second nil check.
//
// The storage is meant to live as long as a run: every item has one event
// slot, and an item's second and later events go to its overflow list,
// whose capacity is kept across sections. Reset empties the buffers for
// the next section, so a warmed IndexBuffers allocates nothing.
type IndexBuffers struct {
	o     Observer
	has   []bool    // item i holds an event in first[i]
	first []Event   // item i's first event
	more  [][]Event // item i's later events, in emission order
}

// NewIndexBuffers returns empty buffers for n work items feeding o, or nil
// when o is nil.
func NewIndexBuffers(o Observer, n int) *IndexBuffers {
	if o == nil {
		return nil
	}
	b := &IndexBuffers{o: o}
	b.Reset(n)
	return b
}

// Reset drops every buffered event and sizes the buffers for n work
// items, keeping their storage. A section starts with Reset, so events a
// failed section left unflushed never reach a later one. No-op on a nil
// receiver.
func (b *IndexBuffers) Reset(n int) {
	if b == nil {
		return
	}
	if cap(b.has) < n {
		b.has = make([]bool, n)
		b.first = make([]Event, n)
		b.more = make([][]Event, n)
	}
	b.has, b.first, b.more = b.has[:n], b.first[:n], b.more[:n]
	clear(b.has)
	for i := range b.more {
		b.more[i] = b.more[i][:0]
	}
}

// Active reports whether events are being collected; workers use it to
// skip clock reads on the nil fast path.
func (b *IndexBuffers) Active() bool { return b != nil }

// Now is the per-item clock gate: time.Now when events are being
// collected, the zero Time on the nil fast path.
func (b *IndexBuffers) Now() time.Time {
	if b == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since returns the elapsed wall time since t when events are being
// collected, 0 on the nil fast path.
func (b *IndexBuffers) Since(t time.Time) time.Duration {
	if b == nil {
		return 0
	}
	return time.Since(t)
}

// Emit appends e to item i's buffer. Safe to call concurrently for
// distinct i; no-op on a nil receiver.
func (b *IndexBuffers) Emit(i int, e Event) {
	if b == nil {
		return
	}
	if !b.has[i] {
		b.has[i], b.first[i] = true, e
		return
	}
	b.more[i] = append(b.more[i], e) //rabid:allow allocfree overflow growth: an item's second and later events, kept across sections
}

// Flush forwards all buffered events in item-index order and empties the
// buffers. No-op on a nil receiver.
func (b *IndexBuffers) Flush() {
	if b == nil {
		return
	}
	for i, ok := range b.has {
		if !ok {
			continue
		}
		b.o.Observe(b.first[i])
		for _, e := range b.more[i] {
			b.o.Observe(e)
		}
		b.has[i], b.more[i] = false, b.more[i][:0]
	}
}

// progress renders KindLog events as plain lines — the thin adapter that
// keeps the experiment harness's io.Writer progress signature.
type progress struct {
	mu sync.Mutex
	w  io.Writer
}

// Progress returns an observer printing each KindLog event's Scope as one
// line to w (other kinds are ignored), or nil when w is nil. It is safe
// for concurrent use even when w is not.
func Progress(w io.Writer) Observer {
	if w == nil {
		return nil
	}
	return &progress{w: w}
}

func (p *progress) Observe(e Event) {
	if e.Kind != KindLog {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	io.WriteString(p.w, e.Scope)
	io.WriteString(p.w, "\n")
}
