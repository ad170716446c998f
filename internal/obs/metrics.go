package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds values < 1, bucket i holds values in [2^(i-1), 2^i), and the last
// bucket absorbs everything larger.
const histBuckets = 32

// Histogram is a fixed exponential (power-of-two) histogram of observed
// counter/gauge values, plus exact count/sum/min/max.
type Histogram struct {
	Count    int
	Sum      float64
	Min, Max float64
	Buckets  [histBuckets]int
}

func (h *Histogram) observe(v float64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

// Quantile estimates the q-th quantile (q in [0,1]) of the observed values
// from the power-of-two buckets: it walks the cumulative counts to the
// bucket holding the q-th observation and interpolates linearly inside the
// bucket's [2^(i-1), 2^i) range, clamping to the exact observed [Min, Max].
// The clamp makes estimates finite whenever every observation was finite,
// and the monotone walk makes Quantile itself monotone in q — the two
// properties cmd/metricscheck's -quantiles gate asserts. A histogram with
// no observations reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		prev := cum
		cum += float64(n)
		if cum >= rank {
			lo, hi := bucketBounds(i)
			v := lo + (rank-prev)/float64(n)*(hi-lo)
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
	}
	return h.Max
}

// bucketBounds returns the value range [lo, hi) of bucket i, mirroring
// bucketOf: bucket 0 absorbs everything below 1 (including negatives, which
// the Min clamp in Quantile handles), bucket i >= 1 covers [2^(i-1), 2^i).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Ldexp(1, i-1), math.Ldexp(1, i)
}

// bucketOf maps v to its power-of-two bucket; non-finite and negative
// values land in the extreme buckets rather than corrupting the array.
func bucketOf(v float64) int {
	if math.IsNaN(v) || v < 1 {
		return 0
	}
	if v >= math.MaxUint64/2 {
		return histBuckets - 1
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// SpanStats aggregates the completed spans of one scope key.
type SpanStats struct {
	Count int
	Total time.Duration
}

// Metrics is the aggregating registry sink: counters sum, gauges keep the
// last value, every counter/gauge observation also feeds a histogram of
// its scope, and span-end events accumulate count and total duration per
// stage-qualified scope ("stage.2", "net.assign.3", ...). Safe for
// concurrent use, so one registry can absorb the experiment suite's
// concurrent benchmark fan-out.
//
// Each (scope, stage) pair is resolved to its series once: the qualified
// name is built the first time the pair is seen, and every later event of
// the pair costs one map lookup under the mutex and allocates nothing.
// Pairs whose qualified names coincide (scope "a.2" at stage 0 and scope
// "a" at stage 2) share one series, as they share one name.
type Metrics struct {
	mu     sync.Mutex
	byPair map[seriesPair]*series
	byName map[string]*series
}

// seriesPair is what an event names a series by; stages <= 0 are stored
// as 0, since they all qualify to the bare scope.
type seriesPair struct {
	scope string
	stage int
}

// series is the aggregate of one qualified name. has records which of the
// counter, gauge and span were observed, so the dumps list a name only in
// the sections it was reported to.
type series struct {
	name    string
	has     uint8
	counter float64
	gauge   float64
	hist    Histogram // fed by counter and gauge observations alike
	span    SpanStats
}

const (
	hasCounter uint8 = 1 << iota
	hasGauge
	hasSpan
	hasHist = hasCounter | hasGauge
)

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		byPair: map[seriesPair]*series{},
		byName: map[string]*series{},
	}
}

// key qualifies a scope with its stage ("route.pops.2"); stage-less
// events keep the bare scope.
func key(scope string, stage int) string {
	if stage <= 0 {
		return scope
	}
	return scope + "." + strconv.Itoa(stage)
}

// Observe implements Observer.
func (m *Metrics) Observe(e Event) {
	var has uint8
	switch e.Kind {
	case KindCounter:
		has = hasCounter
	case KindGauge:
		has = hasGauge
	case KindSpanEnd:
		has = hasSpan
	default:
		// Span begins, heat snapshots, and log lines carry no aggregate.
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := seriesPair{e.Scope, max(e.Stage, 0)}
	s := m.byPair[p]
	if s == nil {
		s = m.resolve(p) //rabid:allow allocfree first sight of a (scope, stage) pair: its name and series are made once, and every later event of the pair is a map hit
	}
	s.has |= has
	switch has {
	case hasCounter:
		s.counter += e.Value
		s.hist.observe(e.Value)
	case hasGauge:
		s.gauge = e.Value
		s.hist.observe(e.Value)
	case hasSpan:
		s.span.Count++
		s.span.Total += e.Dur
	}
}

// resolve binds a pair seen for the first time to the series of its
// qualified name, creating that series if no other pair has named it.
// The caller holds m.mu.
func (m *Metrics) resolve(p seriesPair) *series {
	name := key(p.scope, p.stage)
	s := m.byName[name]
	if s == nil {
		s = &series{name: name}
		m.byName[name] = s
	}
	m.byPair[p] = s
	return s
}

// lookup returns the series of a qualified name if it reported has.
func (m *Metrics) lookup(k string, has uint8) *series {
	if s := m.byName[k]; s != nil && s.has&has != 0 {
		return s
	}
	return nil
}

// Counter returns the accumulated value of a counter key.
func (m *Metrics) Counter(k string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.lookup(k, hasCounter); s != nil {
		return s.counter
	}
	return 0
}

// Gauge returns the last value of a gauge key and whether it was set.
func (m *Metrics) Gauge(k string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.lookup(k, hasGauge); s != nil {
		return s.gauge, true
	}
	return 0, false
}

// Span returns the aggregated stats of a span key (zero value if unseen).
func (m *Metrics) Span(k string) SpanStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.lookup(k, hasSpan); s != nil {
		return s.span
	}
	return SpanStats{}
}

// WriteJSON dumps the registry as one expvar-style JSON document with
// sorted keys (deterministic given the same aggregated values). This is
// the format cmd/metricscheck validates in CI.
func (m *Metrics) WriteJSON(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b []byte
	b = append(b, `{"counters":{`...)
	for i, s := range m.named(hasCounter) {
		b = appendKey(b, i, s.name)
		b = appendFloat(b, s.counter)
	}
	b = append(b, `},"gauges":{`...)
	for i, s := range m.named(hasGauge) {
		b = appendKey(b, i, s.name)
		b = appendFloat(b, s.gauge)
	}
	b = append(b, `},"histograms":{`...)
	for i, s := range m.named(hasHist) {
		h := &s.hist
		b = appendKey(b, i, s.name)
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, int64(h.Count), 10)
		b = append(b, `,"sum":`...)
		b = appendFloat(b, h.Sum)
		b = append(b, `,"min":`...)
		b = appendFloat(b, h.Min)
		b = append(b, `,"max":`...)
		b = appendFloat(b, h.Max)
		b = append(b, `,"p50":`...)
		b = appendFloat(b, h.Quantile(0.50))
		b = append(b, `,"p95":`...)
		b = appendFloat(b, h.Quantile(0.95))
		b = append(b, `,"p99":`...)
		b = appendFloat(b, h.Quantile(0.99))
		b = append(b, `,"buckets":[`...)
		// Trailing empty buckets are truncated to keep dumps compact.
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
	for i, s := range m.named(hasSpan) {
		b = appendKey(b, i, s.name)
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, int64(s.span.Count), 10)
		b = append(b, `,"total_ns":`...)
		b = strconv.AppendInt(b, int64(s.span.Total), 10)
		b = append(b, '}')
	}
	b = append(b, `}}`...)
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

// WriteSummary renders the registry as a human-readable run summary:
// spans first (where the wall clock went), then counters and gauges.
func (m *Metrics) WriteSummary(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := fmt.Fprintf(w, "telemetry summary\n"); err != nil {
		return err
	}
	if spans := m.named(hasSpan); len(spans) > 0 {
		fmt.Fprintf(w, "  spans (count, total wall clock):\n")
		for _, s := range spans {
			fmt.Fprintf(w, "    %-28s %6dx  %s\n", s.name, s.span.Count, s.span.Total)
		}
	}
	if counters := m.named(hasCounter); len(counters) > 0 {
		fmt.Fprintf(w, "  counters:\n")
		for _, s := range counters {
			fmt.Fprintf(w, "    %-28s %g\n", s.name, s.counter)
		}
	}
	if gauges := m.named(hasGauge); len(gauges) > 0 {
		fmt.Fprintf(w, "  gauges (last value):\n")
		for _, s := range gauges {
			fmt.Fprintf(w, "    %-28s %g\n", s.name, s.gauge)
		}
	}
	if hists := m.named(hasHist); len(hists) > 0 {
		fmt.Fprintf(w, "  histograms (count, min / p50 p95 p99 / max):\n")
		for _, s := range hists {
			h := &s.hist
			fmt.Fprintf(w, "    %-28s %6dx  %g / %g %g %g / %g\n",
				s.name, h.Count, h.Min, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
		}
	}
	return nil
}

// named returns the series that reported any of has, ascending by name.
// The caller holds m.mu.
func (m *Metrics) named(has uint8) []*series {
	var out []*series
	for _, s := range m.byName {
		if s.has&has != 0 {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b *series) int { return strings.Compare(a.name, b.name) })
	return out
}

// appendKey appends the i-th member name of a JSON object, with its
// separating comma and the colon.
func appendKey(b []byte, i int, name string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = strconv.AppendQuote(b, name)
	return append(b, ':')
}
