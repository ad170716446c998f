package obs_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/obs"
)

// oracleMetrics is the registry as it was before series were interned: a
// map per aggregate, keyed by the qualified name built for every event.
// TestMetricsMatchesOracle holds obs.Metrics to its dumps byte for byte.
type oracleMetrics struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*obs.Histogram
	spans    map[string]*obs.SpanStats
}

func newOracleMetrics() *oracleMetrics {
	return &oracleMetrics{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*obs.Histogram{},
		spans:    map[string]*obs.SpanStats{},
	}
}

func oracleKey(scope string, stage int) string {
	if stage <= 0 {
		return scope
	}
	return scope + "." + strconv.Itoa(stage)
}

func (m *oracleMetrics) Observe(e obs.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e.Kind {
	case obs.KindCounter:
		k := oracleKey(e.Scope, e.Stage)
		m.counters[k] += e.Value
		m.hist(k).ObserveValue(e.Value)
	case obs.KindGauge:
		k := oracleKey(e.Scope, e.Stage)
		m.gauges[k] = e.Value
		m.hist(k).ObserveValue(e.Value)
	case obs.KindSpanEnd:
		k := oracleKey(e.Scope, e.Stage)
		s := m.spans[k]
		if s == nil {
			s = &obs.SpanStats{}
			m.spans[k] = s
		}
		s.Count++
		s.Total += e.Dur
	}
}

func (m *oracleMetrics) hist(k string) *obs.Histogram {
	h := m.hists[k]
	if h == nil {
		h = &obs.Histogram{}
		m.hists[k] = h
	}
	return h
}

func (m *oracleMetrics) WriteJSON(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b []byte
	b = append(b, `{"counters":{`...)
	b = appendFloatMap(b, m.counters)
	b = append(b, `},"gauges":{`...)
	b = appendFloatMap(b, m.gauges)
	b = append(b, `},"histograms":{`...)
	for i, k := range sortedKeys(m.hists) {
		if i > 0 {
			b = append(b, ',')
		}
		h := m.hists[k]
		b = strconv.AppendQuote(b, k)
		b = append(b, `:{"count":`...)
		b = strconv.AppendInt(b, int64(h.Count), 10)
		b = append(b, `,"sum":`...)
		b = obs.AppendFloat(b, h.Sum)
		b = append(b, `,"min":`...)
		b = obs.AppendFloat(b, h.Min)
		b = append(b, `,"max":`...)
		b = obs.AppendFloat(b, h.Max)
		b = append(b, `,"p50":`...)
		b = obs.AppendFloat(b, h.Quantile(0.50))
		b = append(b, `,"p95":`...)
		b = obs.AppendFloat(b, h.Quantile(0.95))
		b = append(b, `,"p99":`...)
		b = obs.AppendFloat(b, h.Quantile(0.99))
		b = append(b, `,"buckets":[`...)
		top := len(h.Buckets)
		for top > 0 && h.Buckets[top-1] == 0 {
			top--
		}
		for j := 0; j < top; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(h.Buckets[j]), 10)
		}
		b = append(b, `]}`...)
	}
	b = append(b, `},"spans":{`...)
	for i, k := range sortedKeys(m.spans) {
		if i > 0 {
			b = append(b, ',')
		}
		s := m.spans[k]
		b = strconv.AppendQuote(b, k)
		b = append(b, `:{"count":`...)
		b = strconv.AppendInt(b, int64(s.Count), 10)
		b = append(b, `,"total_ns":`...)
		b = strconv.AppendInt(b, int64(s.Total), 10)
		b = append(b, '}')
	}
	b = append(b, `}}`...)
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

func (m *oracleMetrics) WriteSummary(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := fmt.Fprintf(w, "telemetry summary\n"); err != nil {
		return err
	}
	if len(m.spans) > 0 {
		fmt.Fprintf(w, "  spans (count, total wall clock):\n")
		for _, k := range sortedKeys(m.spans) {
			s := m.spans[k]
			fmt.Fprintf(w, "    %-28s %6dx  %s\n", k, s.Count, s.Total)
		}
	}
	if len(m.counters) > 0 {
		fmt.Fprintf(w, "  counters:\n")
		for _, k := range sortedKeys(m.counters) {
			fmt.Fprintf(w, "    %-28s %g\n", k, m.counters[k])
		}
	}
	if len(m.gauges) > 0 {
		fmt.Fprintf(w, "  gauges (last value):\n")
		for _, k := range sortedKeys(m.gauges) {
			fmt.Fprintf(w, "    %-28s %g\n", k, m.gauges[k])
		}
	}
	if len(m.hists) > 0 {
		fmt.Fprintf(w, "  histograms (count, min / p50 p95 p99 / max):\n")
		for _, k := range sortedKeys(m.hists) {
			h := m.hists[k]
			fmt.Fprintf(w, "    %-28s %6dx  %g / %g %g %g / %g\n",
				k, h.Count, h.Min, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
		}
	}
	return nil
}

func appendFloatMap(b []byte, m map[string]float64) []byte {
	for i, k := range sortedKeys(m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, k)
		b = append(b, ':')
		b = obs.AppendFloat(b, m[k])
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recorder keeps a copy of every event it observes.
type recorder struct{ evs []obs.Event }

func (r *recorder) Observe(e obs.Event) {
	e.Vals = append([]float64(nil), e.Vals...)
	r.evs = append(r.evs, e)
}

// planEvents is the event stream of `rabid -bench apte -grid 10x11
// -backend <engine>`, with every span duration replaced by a fixed value
// so that the span totals of the dumps are deterministic.
func planEvents(t *testing.T, engine string) []obs.Event {
	t.Helper()
	c, err := exp.Generate("apte", floorplan.Options{GridW: 10, GridH: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := exp.ParamsFor("apte")
	p.Backend = engine
	rec := &recorder{}
	p.Observer = rec
	if _, err := backend.Plan(context.Background(), c, p); err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	for i := range rec.evs {
		if rec.evs[i].Kind == obs.KindSpanEnd {
			rec.evs[i].Dur = time.Duration(i+1) * time.Microsecond
		}
	}
	return rec.evs
}

// collidingEvents is a synthetic stream whose (scope, stage) pairs
// qualify to coinciding names: scope "a.2" at stage 0 and scope "a" at
// stage 2 are both "a.2", and a negative stage qualifies to the bare
// scope as stage 0 does. Every aggregate is fed through both spellings.
func collidingEvents() []obs.Event {
	var evs []obs.Event
	for i := 0; i < 20; i++ {
		scope, stage := "a.2", 0
		if i%2 == 1 {
			scope, stage = "a", 2
		}
		if i%5 == 0 {
			stage = -1
			scope = "b"
		}
		v := float64(i*i%17) - 3
		evs = append(evs,
			obs.Event{Kind: obs.KindCounter, Scope: scope, Stage: stage, Net: i, Value: v},
			obs.Event{Kind: obs.KindGauge, Scope: scope, Stage: stage, Net: -1, Value: v / 4},
			obs.Event{Kind: obs.KindSpanBegin, Scope: scope, Stage: stage, Net: -1},
			obs.Event{Kind: obs.KindSpanEnd, Scope: scope, Stage: stage, Net: -1, Dur: time.Duration(i) * time.Millisecond},
			obs.Event{Kind: obs.KindHeat, Scope: scope, Stage: stage, Net: -1, Vals: []float64{v}},
			obs.Event{Kind: obs.KindLog, Scope: scope, Net: -1},
		)
		// Names that sort between and around the colliding ones, each
		// reported to one aggregate only.
		evs = append(evs,
			obs.Event{Kind: obs.KindCounter, Scope: "a", Stage: 1, Net: -1, Value: 1},
			obs.Event{Kind: obs.KindGauge, Scope: "a.10", Net: -1, Value: v},
			obs.Event{Kind: obs.KindSpanEnd, Scope: "a", Net: -1, Dur: time.Microsecond},
		)
	}
	return evs
}

// dumps renders a registry's JSON and summary dumps.
func dumps(t *testing.T, m interface {
	WriteJSON(io.Writer) error
	WriteSummary(io.Writer) error
}) (js, summary []byte) {
	t.Helper()
	var a, b bytes.Buffer
	if err := m.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

// TestMetricsMatchesOracle: the interned registry aggregates exactly as
// the string-keyed one did. Its JSON and summary dumps are byte-identical
// to the oracle's on the event streams of the three engines and on a
// stream whose qualified names collide.
func TestMetricsMatchesOracle(t *testing.T) {
	streams := map[string][]obs.Event{"colliding": collidingEvents()}
	for _, engine := range []string{"rabid", "rabid+lib", "mcf"} {
		streams[engine] = planEvents(t, engine)
	}
	for _, name := range []string{"rabid", "rabid+lib", "mcf", "colliding"} {
		m, o := obs.NewMetrics(), newOracleMetrics()
		for _, e := range streams[name] {
			m.Observe(e)
			o.Observe(e)
		}
		gotJSON, gotSum := dumps(t, m)
		wantJSON, wantSum := dumps(t, o)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: WriteJSON differs from the oracle\n got: %.600s\nwant: %.600s", name, gotJSON, wantJSON)
		}
		if !bytes.Equal(gotSum, wantSum) {
			t.Errorf("%s: WriteSummary differs from the oracle\n got:\n%.600s\nwant:\n%.600s", name, gotSum, wantSum)
		}
		for k, v := range o.counters {
			if got := m.Counter(k); got != v {
				t.Errorf("%s: Counter(%q) = %g, oracle %g", name, k, got, v)
			}
		}
		for k, v := range o.gauges {
			if got, ok := m.Gauge(k); !ok || got != v {
				t.Errorf("%s: Gauge(%q) = %g,%v, oracle %g,true", name, k, got, ok, v)
			}
		}
		for k, s := range o.spans {
			if got := m.Span(k); got != *s {
				t.Errorf("%s: Span(%q) = %+v, oracle %+v", name, k, got, *s)
			}
		}
		t.Logf("%s: %d events, %d counters, %d gauges, %d spans", name, len(streams[name]), len(o.counters), len(o.gauges), len(o.spans))
	}
	// Unseen names, and names seen only as another aggregate, read as unset.
	m := obs.NewMetrics()
	m.Observe(obs.Event{Kind: obs.KindCounter, Scope: "c", Net: -1, Value: 2})
	if _, ok := m.Gauge("c"); ok {
		t.Error("a counter-only name reads as a set gauge")
	}
	if s := m.Span("c"); s != (obs.SpanStats{}) {
		t.Errorf("a counter-only name reads as span %+v", s)
	}
	if v := m.Counter("nope"); v != 0 {
		t.Errorf("unseen counter = %g", v)
	}
}

// TestMetricsConcurrentObserve: goroutines observing the same and new
// series at once (run it under -race) aggregate what the oracle does when
// fed the same events one by one. The values are small integers, so the
// float sums are exact in any order, and each goroutine writes gauges of
// its own.
func TestMetricsConcurrentObserve(t *testing.T) {
	const workers, rounds = 8, 200
	m, o := obs.NewMetrics(), newOracleMetrics()
	events := func(w int) []obs.Event {
		var evs []obs.Event
		for r := 0; r < rounds; r++ {
			evs = append(evs,
				obs.Event{Kind: obs.KindCounter, Scope: "shared", Stage: r % 3, Net: -1, Value: float64(r % 7)},
				obs.Event{Kind: obs.KindCounter, Scope: "own." + strconv.Itoa(w), Stage: r % 2, Net: -1, Value: 1},
				obs.Event{Kind: obs.KindGauge, Scope: "gauge." + strconv.Itoa(w), Net: -1, Value: float64(r)},
				obs.Event{Kind: obs.KindSpanEnd, Scope: "span", Stage: r % 4, Net: -1, Dur: time.Duration(r)},
			)
		}
		return evs
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		evs := events(w)
		for _, e := range evs {
			o.Observe(e)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range evs {
				m.Observe(e)
			}
		}()
	}
	wg.Wait()
	gotJSON, gotSum := dumps(t, m)
	wantJSON, wantSum := dumps(t, o)
	if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotSum, wantSum) {
		t.Errorf("concurrent observation differs from the oracle\n got: %.600s\nwant: %.600s", gotJSON, wantJSON)
	}
}
