package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
)

// fixedEvents is the synthetic stream behind the golden tests: one of
// every kind, with deterministic durations.
func fixedEvents() []Event {
	return []Event{
		{Kind: KindSpanBegin, Scope: "run", Net: -1},
		{Kind: KindSpanBegin, Scope: "stage", Stage: 2, Net: -1},
		{Kind: KindSpanBegin, Scope: "ripup.pass", Stage: 2, Pass: 1, Net: -1},
		{Kind: KindCounter, Scope: "route.pops", Stage: 2, Pass: 1, Net: 7, Value: 123},
		{Kind: KindCounter, Scope: "route.pops", Stage: 2, Pass: 1, Net: 8, Value: 45},
		{Kind: KindGauge, Scope: "ripup.overflow", Stage: 2, Pass: 1, Net: -1, Value: 0.5},
		{Kind: KindSpanEnd, Scope: "ripup.pass", Stage: 2, Pass: 1, Net: -1, Dur: 1500 * time.Microsecond},
		{Kind: KindHeat, Scope: "heat.wire", Stage: 2, Net: -1, Vals: []float64{0, 0.25, 1.5}},
		{Kind: KindSpanEnd, Scope: "stage", Stage: 2, Net: -1, Dur: 2 * time.Millisecond},
		{Kind: KindLog, Scope: "table2: apte", Net: -1},
		{Kind: KindSpanEnd, Scope: "run", Net: -1, Dur: 3 * time.Millisecond},
	}
}

func TestJSONLinesGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLines(&buf)
	for _, e := range fixedEvents() {
		s.Observe(e)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	want := `{"k":"span_begin","scope":"run"}
{"k":"span_begin","scope":"stage","stage":2}
{"k":"span_begin","scope":"ripup.pass","stage":2,"pass":1}
{"k":"counter","scope":"route.pops","stage":2,"pass":1,"net":7,"v":123}
{"k":"counter","scope":"route.pops","stage":2,"pass":1,"net":8,"v":45}
{"k":"gauge","scope":"ripup.overflow","stage":2,"pass":1,"v":0.5}
{"k":"span_end","scope":"ripup.pass","stage":2,"pass":1}
{"k":"heat","scope":"heat.wire","stage":2,"vals":[0,0.25,1.5]}
{"k":"span_end","scope":"stage","stage":2}
{"k":"log","scope":"table2: apte"}
{"k":"span_end","scope":"run"}
`
	if got := buf.String(); got != want {
		t.Errorf("JSON-lines stream mismatch:\n got: %q\nwant: %q", got, want)
	}
	// Every line must be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("line %q is not valid JSON: %v", line, err)
		}
	}
}

func TestJSONLinesDurations(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLines(&buf)
	s.Durations = true
	s.Observe(Event{Kind: KindSpanEnd, Scope: "stage", Stage: 1, Net: -1, Dur: 1500 * time.Microsecond})
	want := `{"k":"span_end","scope":"stage","stage":1,"dur_ns":1500000}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestJSONLinesNonFinite(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLines(&buf)
	s.Observe(Event{Kind: KindGauge, Scope: "g", Net: -1, Value: math.Inf(1)})
	want := `{"k":"gauge","scope":"g","v":null}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	for _, e := range fixedEvents() {
		m.Observe(e)
	}
	if got := m.Counter("route.pops.2"); got != 168 {
		t.Errorf("route.pops.2 = %g, want 168", got)
	}
	if v, ok := m.Gauge("ripup.overflow.2"); !ok || v != 0.5 {
		t.Errorf("ripup.overflow.2 = %g,%v want 0.5,true", v, ok)
	}
	if s := m.Span("stage.2"); s.Count != 1 || s.Total != 2*time.Millisecond {
		t.Errorf("stage.2 span = %+v", s)
	}
	if s := m.Span("ripup.pass.2"); s.Count != 1 || s.Total != 1500*time.Microsecond {
		t.Errorf("ripup.pass.2 span = %+v", s)
	}
	if s := m.Span("run"); s.Count != 1 || s.Total != 3*time.Millisecond {
		t.Errorf("run span = %+v", s)
	}
}

func TestMetricsJSONGolden(t *testing.T) {
	m := NewMetrics()
	for _, e := range fixedEvents() {
		m.Observe(e)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"counters":{"route.pops.2":168},` +
		`"gauges":{"ripup.overflow.2":0.5},` +
		`"histograms":{"ripup.overflow.2":{"count":1,"sum":0.5,"min":0.5,"max":0.5,"p50":0.5,"p95":0.5,"p99":0.5,"buckets":[1]},` +
		`"route.pops.2":{"count":2,"sum":168,"min":45,"max":123,"p50":64,"p95":121.6,"p99":123,"buckets":[0,0,0,0,0,0,1,1]}},` +
		`"spans":{"ripup.pass.2":{"count":1,"total_ns":1500000},` +
		`"run":{"count":1,"total_ns":3000000},` +
		`"stage.2":{"count":1,"total_ns":2000000}}}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("metrics JSON mismatch:\n got: %s\nwant: %s", got, want)
	}
	// And it must round-trip through encoding/json (the CI checker's view).
	var v map[string]any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
}

func TestSummaryGolden(t *testing.T) {
	m := NewMetrics()
	for _, e := range fixedEvents() {
		m.Observe(e)
	}
	var buf bytes.Buffer
	if err := m.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	want := `telemetry summary
  spans (count, total wall clock):
    ripup.pass.2                      1x  1.5ms
    run                               1x  3ms
    stage.2                           1x  2ms
  counters:
    route.pops.2                 168
  gauges (last value):
    ripup.overflow.2             0.5
  histograms (count, min / p50 p95 p99 / max):
    ripup.overflow.2                  1x  0.5 / 0.5 0.5 0.5 / 0.5
    route.pops.2                      2x  45 / 64 121.6 123 / 123
`
	if got := buf.String(); got != want {
		t.Errorf("summary mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestNilObserverZeroAlloc is the acceptance check for the nil-observer
// fast path: building an Event and calling Emit / IndexBuffers methods
// with no observer attached must not allocate.
func TestNilObserverZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		Emit(nil, Event{Kind: KindCounter, Scope: "route.pops", Stage: 2, Net: 3, Value: 17})
	}); n != 0 {
		t.Errorf("Emit(nil, ...) allocates %v per run, want 0", n)
	}
	var b *IndexBuffers // = NewIndexBuffers(nil, n)
	if nb := NewIndexBuffers(nil, 8); nb != nil {
		t.Fatal("NewIndexBuffers(nil, ...) must return nil")
	}
	if n := testing.AllocsPerRun(100, func() {
		if b.Active() {
			t.Fatal("nil buffers active")
		}
		b.Emit(3, Event{Kind: KindSpanEnd, Scope: "net.steiner", Stage: 1, Net: 3})
		b.Flush()
	}); n != 0 {
		t.Errorf("nil IndexBuffers ops allocate %v per run, want 0", n)
	}
	if o := Multi(nil, nil); o != nil {
		t.Error("Multi(nil, nil) must collapse to nil")
	}
}

// TestNilObserverClockZeroAlloc extends the nil-observer contract to the
// gated clock: with no observer attached, Now/Since (and the IndexBuffers
// equivalents) must neither allocate nor read the wall clock — they
// return zero values, which is what keeps untapped runs clock-free.
func TestNilObserverClockZeroAlloc(t *testing.T) {
	var b *IndexBuffers
	if n := testing.AllocsPerRun(100, func() {
		if !Now(nil).IsZero() {
			t.Fatal("Now(nil) read the clock")
		}
		if Since(nil, time.Time{}) != 0 {
			t.Fatal("Since(nil, ...) read the clock")
		}
		if !b.Now().IsZero() {
			t.Fatal("nil IndexBuffers Now read the clock")
		}
		if b.Since(time.Time{}) != 0 {
			t.Fatal("nil IndexBuffers Since read the clock")
		}
	}); n != 0 {
		t.Errorf("nil-observer clock ops allocate %v per run, want 0", n)
	}
	// With an observer attached the gate opens.
	rec := observerFunc(func(Event) {})
	if Now(rec).IsZero() {
		t.Error("Now with an observer must read the clock")
	}
	if tapped := NewIndexBuffers(rec, 1); tapped.Now().IsZero() {
		t.Error("tapped IndexBuffers Now must read the clock")
	}
}

// TestIndexBuffersDeterministicOrder: events emitted concurrently out of
// index order are flushed in index order.
func TestIndexBuffersDeterministicOrder(t *testing.T) {
	const n = 32
	var got []int
	rec := observerFunc(func(e Event) { got = append(got, e.Net) })
	b := NewIndexBuffers(rec, n)
	if err := par.ForEach(8, n, func(i int) error {
		b.Emit(i, Event{Kind: KindSpanEnd, Scope: "op", Net: i})
		b.Emit(i, Event{Kind: KindCounter, Scope: "c", Net: i, Value: 1})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if len(got) != 2*n {
		t.Fatalf("flushed %d events, want %d", len(got), 2*n)
	}
	for i := 0; i < n; i++ {
		if got[2*i] != i || got[2*i+1] != i {
			t.Fatalf("events out of index order at item %d: %v", i, got[2*i:2*i+2])
		}
	}
	// Flush resets: a second flush emits nothing.
	got = got[:0]
	b.Flush()
	if len(got) != 0 {
		t.Errorf("second flush re-emitted %d events", len(got))
	}
}

// TestIndexBuffersReuse: buffers reset for the next section keep their
// storage, so a warmed section allocates nothing, one event per item or
// several; and a section that failed before its flush leaks nothing into
// the next one.
func TestIndexBuffersReuse(t *testing.T) {
	const n = 16
	var got []Event
	b := NewIndexBuffers(observerFunc(func(e Event) { got = append(got, e) }), n)
	for i := 0; i < n; i++ {
		b.Emit(i, Event{Kind: KindCounter, Scope: "failed", Net: i, Value: 1})
	}
	// The section above never flushed; the next one starts with Reset.
	b.Reset(n)
	for i := n - 1; i >= 0; i-- {
		b.Emit(i, Event{Kind: KindGauge, Scope: "g", Net: i})
		if i%3 == 0 {
			b.Emit(i, Event{Kind: KindCounter, Scope: "c", Net: i})
			b.Emit(i, Event{Kind: KindSpanEnd, Scope: "s", Net: i})
		}
	}
	b.Flush()
	want := 0
	for i := 0; i < n; i++ {
		scopes := []string{"g"}
		if i%3 == 0 {
			scopes = append(scopes, "c", "s")
		}
		for _, sc := range scopes {
			if want >= len(got) || got[want].Net != i || got[want].Scope != sc {
				t.Fatalf("flushed %v, want item %d's %q at position %d", got, i, sc, want)
			}
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("flushed %d events, want %d (a failed section's events leaked)", len(got), want)
	}

	got = make([]Event, 0, 4*n)
	for _, perItem := range []int{1, 3} {
		section := func() {
			got = got[:0]
			b.Reset(n)
			for i := 0; i < n; i++ {
				for k := 0; k < perItem; k++ {
					b.Emit(i, Event{Kind: KindCounter, Scope: "c", Net: i, Value: 1})
				}
			}
			b.Flush()
		}
		section()
		if a := testing.AllocsPerRun(20, section); a != 0 {
			t.Errorf("%d events per item: a warmed section allocates %v, want 0", perItem, a)
		}
		if len(got) != perItem*n {
			t.Errorf("%d events per item: flushed %d, want %d", perItem, len(got), perItem*n)
		}
	}
}

// TestMetricsObserveZeroAllocSteadyState: once a series has been seen,
// counter, gauge and span-end events on it allocate nothing, at stage 0
// and at a positive stage alike.
func TestMetricsObserveZeroAllocSteadyState(t *testing.T) {
	m := NewMetrics()
	events := []Event{
		{Kind: KindCounter, Scope: "route.pops", Net: 3, Value: 17},
		{Kind: KindCounter, Scope: "route.pops", Stage: 2, Net: 3, Value: 17},
		{Kind: KindGauge, Scope: "net.delay_ps", Net: 3, Value: 120.5},
		{Kind: KindGauge, Scope: "net.delay_ps", Stage: 4, Net: 3, Value: 120.5},
		{Kind: KindSpanEnd, Scope: "net.assign", Net: 3, Dur: time.Microsecond},
		{Kind: KindSpanEnd, Scope: "net.assign", Stage: 3, Net: 3, Dur: time.Microsecond},
	}
	for _, e := range events {
		m.Observe(e)
	}
	for _, e := range events {
		if a := testing.AllocsPerRun(100, func() { m.Observe(e) }); a != 0 {
			t.Errorf("Observe(%v %q stage %d) on a seen series allocates %v, want 0", e.Kind, e.Scope, e.Stage, a)
		}
	}
}

type observerFunc func(Event)

func (f observerFunc) Observe(e Event) { f(e) }

func TestMultiFanOut(t *testing.T) {
	var a, b int
	o := Multi(observerFunc(func(Event) { a++ }), nil, observerFunc(func(Event) { b++ }))
	o.Observe(Event{Kind: KindCounter, Scope: "x", Net: -1})
	if a != 1 || b != 1 {
		t.Errorf("fan-out reached (%d,%d) observers, want (1,1)", a, b)
	}
	single := observerFunc(func(Event) { a++ })
	if got := Multi(nil, single); got == nil {
		t.Error("Multi with one live observer returned nil")
	}
}

func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	p := Progress(&buf)
	p.Observe(Event{Kind: KindLog, Scope: "table2: apte", Net: -1})
	p.Observe(Event{Kind: KindCounter, Scope: "ignored", Net: -1, Value: 1})
	p.Observe(Event{Kind: KindLog, Scope: "table2: xerox", Net: -1})
	if got, want := buf.String(), "table2: apte\ntable2: xerox\n"; got != want {
		t.Errorf("progress output %q, want %q", got, want)
	}
	if Progress(nil) != nil {
		t.Error("Progress(nil) must return nil")
	}
}

// TestHistogramQuantiles: quantile estimates are clamped to the observed
// range, monotone in q, and exact when a bucket's contents are pinned by
// Min/Max — the contract /v1/metricz's p50/p95/p99 export and the
// metricscheck -quantiles gate rely on.
func TestHistogramQuantiles(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile(0.5) = %g, want 0", got)
	}

	var h Histogram
	for v := 1.0; v <= 100; v++ {
		h.observe(v)
	}
	qs := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	prev := math.Inf(-1)
	for _, q := range qs {
		got := h.Quantile(q)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Quantile(%g) = %g, want finite", q, got)
		}
		if got < h.Min || got > h.Max {
			t.Errorf("Quantile(%g) = %g outside observed range [%g, %g]", q, got, h.Min, h.Max)
		}
		if got < prev {
			t.Errorf("Quantile(%g) = %g < Quantile at lower q (%g): not monotone", q, got, prev)
		}
		prev = got
	}
	// The uniform 1..100 stream has its true median at ~50; the log-bucket
	// estimate must land inside the median's own power-of-two bucket.
	if p50 := h.Quantile(0.5); p50 < 32 || p50 > 64 {
		t.Errorf("p50 of uniform 1..100 = %g, want within [32, 64]", p50)
	}

	// A single observation answers every quantile with itself.
	var one Histogram
	one.observe(7)
	for _, q := range qs {
		if got := one.Quantile(q); got != 7 {
			t.Errorf("single-value histogram Quantile(%g) = %g, want 7", q, got)
		}
	}

	// Negative observations share bucket 0; the Min clamp keeps estimates
	// inside the observed range rather than bucket 0's nominal [0, 1).
	var neg Histogram
	neg.observe(-3)
	neg.observe(-1)
	if got := neg.Quantile(0.5); got < -3 || got > -1 {
		t.Errorf("negative-value histogram p50 = %g, want within [-3, -1]", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {-3, 0}, {1, 1}, {1.5, 1}, {2, 2}, {3, 2},
		{4, 3}, {1023, 10}, {1024, 11}, {math.Inf(1), histBuckets - 1},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}
