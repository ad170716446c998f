package cache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/tech"
)

func testCircuit(t *testing.T, seed int64) *netlist.Circuit {
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

// TestPlanKeyStable: the same circuit and params always hash to the same
// key, and regenerating the identical circuit does not change it.
func TestPlanKeyStable(t *testing.T) {
	p := core.DefaultParams()
	k1, err := PlanKey(testCircuit(t, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := PlanKey(testCircuit(t, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("identical inputs hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex sha256", k1)
	}
}

// TestPlanKeyCircuitSensitivity: a different circuit changes the key.
func TestPlanKeyCircuitSensitivity(t *testing.T) {
	p := core.DefaultParams()
	k1, _ := PlanKey(testCircuit(t, 1), p)
	k2, _ := PlanKey(testCircuit(t, 2), p)
	if k1 == k2 {
		t.Error("different circuits hashed identically")
	}
}

// TestPlanKeyParamsSensitivity enumerates one mutation per core.Params
// field and asserts each result-affecting field changes the key while the
// two deliberately excluded fields (Workers: bit-identical results;
// Observer: telemetry only) do not. The reflection sweep at the end forces
// this table to stay exhaustive: adding a field to Params fails the test
// until the field's cache treatment is decided here.
func TestPlanKeyParamsSensitivity(t *testing.T) {
	c := testCircuit(t, 1)
	base, err := PlanKey(c, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]struct {
		mutate     func(*core.Params)
		wantChange bool
	}{
		"Alpha":             {func(p *core.Params) { p.Alpha += 0.1 }, true},
		"RouteOpt":          {func(p *core.Params) { p.RouteOpt.LengthWeight += 0.01 }, true},
		"MaxRipupPasses":    {func(p *core.Params) { p.MaxRipupPasses++ }, true},
		"Capacity":          {func(p *core.Params) { p.Capacity = 7 }, true},
		"TargetStage1Avg":   {func(p *core.Params) { p.TargetStage1Avg += 0.05 }, true},
		"Tech":              {func(p *core.Params) { p.Tech.DriverRes += 1 }, true},
		"SkipStage4":        {func(p *core.Params) { p.SkipStage4 = true }, true},
		"DisableDemandTerm": {func(p *core.Params) { p.DisableDemandTerm = true }, true},
		"Backend":           {func(p *core.Params) { p.Backend = "mcf" }, true},
		"Library":           {func(p *core.Params) { p.Library = tech.DefaultPlanningLibrary018() }, true},
		"MCFPhases":         {func(p *core.Params) { p.MCFPhases = 20 }, true},
		"MCFEpsilon":        {func(p *core.Params) { p.MCFEpsilon = 0.2 }, true},
		"Workers":           {func(p *core.Params) { p.Workers = 3 }, false},
		"Observer":          {func(p *core.Params) { p.Observer = obs.NewMetrics() }, false},
		// Router workspace pooling is memory reuse, not configuration: the
		// route.Workspace/adjacency machinery is mechanically equivalent to
		// the unpooled path (golden fixtures prove byte identity), so a
		// pooled and an unpooled run must share one cache entry.
		"WorkspacePool": {func(p *core.Params) { p.WorkspacePool = route.NewPool() }, false},
	}
	for name, m := range mutations {
		p := core.DefaultParams()
		m.mutate(&p)
		k, err := PlanKey(c, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if changed := k != base; changed != m.wantChange {
			t.Errorf("mutating %s: key changed = %v, want %v", name, changed, m.wantChange)
		}
	}
	pt := reflect.TypeOf(core.Params{})
	for i := 0; i < pt.NumField(); i++ {
		if _, ok := mutations[pt.Field(i).Name]; !ok {
			t.Errorf("core.Params field %s has no entry in the key-sensitivity table; decide its cache treatment", pt.Field(i).Name)
		}
	}
	// RouteOpt sub-fields that must reach the key (Weight is rejected,
	// Obs/Stage/Pass are excluded as telemetry/transient).
	for name, mutate := range map[string]func(*route.Options){
		"Alpha":           func(o *route.Options) { o.Alpha += 0.1 },
		"OverflowPenalty": func(o *route.Options) { o.OverflowPenalty *= 2 },
	} {
		p := core.DefaultParams()
		mutate(&p.RouteOpt)
		if k, _ := PlanKey(c, p); k == base {
			t.Errorf("mutating RouteOpt.%s did not change the key", name)
		}
	}
}

// planMaterial and bbpMaterial are the key material as one struct each,
// the layout PlanKey and BBPKey hashed by json.Marshal before they
// streamed it. hashMaterial over them is the oracle the streamed keys are
// held to.
type planMaterial struct {
	Version           int              `json:"version"`
	Kind              string           `json:"kind"`
	Circuit           *netlist.Circuit `json:"circuit"`
	Alpha             float64          `json:"alpha"`
	RouteAlpha        float64          `json:"route_alpha"`
	RouteLengthWeight float64          `json:"route_length_weight"`
	RouteOverflowPen  float64          `json:"route_overflow_penalty"`
	MaxRipupPasses    int              `json:"max_ripup_passes"`
	Capacity          int              `json:"capacity"`
	TargetStage1Avg   float64          `json:"target_stage1_avg"`
	Tech              tech.Tech        `json:"tech"`
	SkipStage4        bool             `json:"skip_stage4"`
	DisableDemandTerm bool             `json:"disable_demand_term"`
	Backend           string           `json:"backend"`
	Library           []tech.LibGate   `json:"library,omitempty"`
	MCFPhases         int              `json:"mcf_phases"`
	MCFEpsilon        float64          `json:"mcf_epsilon"`
}

type bbpMaterial struct {
	Version  int              `json:"version"`
	Kind     string           `json:"kind"`
	Circuit  *netlist.Circuit `json:"circuit"`
	Capacity int              `json:"capacity"`
	Tech     tech.Tech        `json:"tech"`
}

func hashMaterial(t *testing.T, material any) string {
	t.Helper()
	b, err := json.Marshal(material)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKeysMatchMarshalledMaterial: the streamed keys equal the SHA-256 of
// json.Marshal over the whole material, for every coarse suite circuit, its
// decomposition (the bbp key) and a nil circuit, under the default
// parameters of each engine and a few others — so streaming moved no key,
// ETag or journal entry.
func TestKeysMatchMarshalledMaterial(t *testing.T) {
	params := []core.Params{core.DefaultParams()}
	for _, mutate := range []func(*core.Params){
		func(p *core.Params) { p.Backend = "rabid" },
		func(p *core.Params) { p.Backend, p.Library = "rabid+lib", tech.DefaultPlanningLibrary018() },
		func(p *core.Params) { p.Backend, p.MCFPhases, p.MCFEpsilon = "mcf", 4, 0.1 },
		func(p *core.Params) { p.Capacity, p.SkipStage4, p.Alpha, p.TargetStage1Avg = 17, true, 1e-7, 0 },
	} {
		p := core.DefaultParams()
		mutate(&p)
		params = append(params, p)
	}
	circuits := []*netlist.Circuit{nil}
	coarse := map[string][2]int{"apte": {10, 11}, "ami33": {11, 10}, "playout": {11, 10}}
	for _, spec := range floorplan.Suite() {
		g, ok := coarse[spec.Name]
		if !ok {
			g = [2]int{10, 10}
		}
		c, err := floorplan.Generate(spec, floorplan.Options{GridW: g[0], GridH: g[1]})
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c, c.DecomposeTwoPin())
	}
	for _, c := range circuits {
		for _, p := range params {
			got, err := PlanKey(c, p)
			if err != nil {
				t.Fatal(err)
			}
			want := hashMaterial(t, planMaterial{
				Version: keyVersion, Kind: "plan", Circuit: c,
				Alpha: p.Alpha, RouteAlpha: p.RouteOpt.Alpha, RouteLengthWeight: p.RouteOpt.LengthWeight,
				RouteOverflowPen: p.RouteOpt.OverflowPenalty, MaxRipupPasses: p.MaxRipupPasses,
				Capacity: p.Capacity, TargetStage1Avg: p.TargetStage1Avg, Tech: p.Tech,
				SkipStage4: p.SkipStage4, DisableDemandTerm: p.DisableDemandTerm, Backend: p.Backend,
				Library: p.Library, MCFPhases: p.MCFPhases, MCFEpsilon: p.MCFEpsilon,
			})
			if got != want {
				t.Errorf("PlanKey(%v, %s) = %s, the marshalled material hashes to %s", c != nil, p.Backend, got, want)
			}
		}
		for _, capacity := range []int{1, 4} {
			got, err := BBPKey(c, capacity, core.DefaultParams().Tech)
			if err != nil {
				t.Fatal(err)
			}
			want := hashMaterial(t, bbpMaterial{Version: keyVersion, Kind: "bbp", Circuit: c, Capacity: capacity, Tech: core.DefaultParams().Tech})
			if got != want {
				t.Errorf("BBPKey(%v, %d) = %s, the marshalled material hashes to %s", c != nil, capacity, got, want)
			}
		}
	}
	bad := testCircuit(t, 1)
	bad.Nets[3].Sinks[0].Pos.X = math.NaN()
	if _, err := PlanKey(bad, core.DefaultParams()); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("PlanKey of a NaN coordinate: error %v, want json's unsupported-value error", err)
	}
}

// BenchmarkPlanKey keys the coarse playout circuit under the default
// parameters.
func BenchmarkPlanKey(b *testing.B) {
	spec, err := floorplan.BySuiteName("playout")
	if err != nil {
		b.Fatal(err)
	}
	c, err := floorplan.Generate(spec, floorplan.Options{GridW: 11, GridH: 10})
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanKey(c, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanKeyRejectsWeight: a custom routing weight is not part of the key
// material and must be refused, not silently ignored.
func TestPlanKeyRejectsWeight(t *testing.T) {
	p := core.DefaultParams()
	p.RouteOpt.Weight = []float64{1}
	if _, err := PlanKey(testCircuit(t, 1), p); err == nil {
		t.Error("PlanKey accepted a params with a custom Weight")
	}
}

// TestBBPKeySensitivity: endpoint kind, capacity, and tech all reach the
// BBP key, and plan/bbp keys never alias for the same circuit.
func TestBBPKeySensitivity(t *testing.T) {
	c := testCircuit(t, 1)
	p := core.DefaultParams()
	k1, err := BBPKey(c, 4, p.Tech)
	if err != nil {
		t.Fatal(err)
	}
	if k2, _ := BBPKey(c, 5, p.Tech); k2 == k1 {
		t.Error("capacity does not reach the BBP key")
	}
	tt := p.Tech
	tt.SinkCap *= 2
	if k3, _ := BBPKey(c, 4, tt); k3 == k1 {
		t.Error("tech does not reach the BBP key")
	}
	if kp, _ := PlanKey(c, p); kp == k1 {
		t.Error("plan and bbp keys alias")
	}
}

// TestLRUEvictionOrder: under the size bound the least recently used entry
// goes first, and a Get refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	m := obs.NewMetrics()
	c := New(2, m)
	put := func(k string) {
		if _, _, err := c.Do(context.Background(), k, func() ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("k1")
	put("k2")
	if _, ok := c.Get("k1"); !ok { // k1 now most recent
		t.Fatal("k1 missing")
	}
	put("k3") // evicts k2, the least recently used
	if _, ok := c.Get("k2"); ok {
		t.Error("k2 survived eviction; LRU order broken")
	}
	if v, ok := c.Get("k1"); !ok || string(v) != "k1" {
		t.Errorf("k1 lost or corrupted: %q, %v", v, ok)
	}
	if v, ok := c.Get("k3"); !ok || string(v) != "k3" {
		t.Errorf("k3 lost or corrupted: %q, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
	if got := m.Counter("cache.evict"); got != 1 {
		t.Errorf("cache.evict = %g, want 1", got)
	}
}

// TestSingleflightDedup: N concurrent Do calls for one key run compute
// exactly once, and every caller gets the identical bytes.
func TestSingleflightDedup(t *testing.T) {
	const n = 16
	c := New(8, nil)
	var computes atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = c.Do(context.Background(), "key", func() ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("result"), nil
			})
		}(i)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times for %d concurrent identical requests", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(vals[i]) != "result" {
			t.Errorf("caller %d got %q", i, vals[i])
		}
	}
}

// TestErrorsNotCached: a failed computation leaves no entry, so the next
// request recomputes.
func TestErrorsNotCached(t *testing.T) {
	c := New(4, nil)
	calls := 0
	compute := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}
	if _, _, err := c.Do(context.Background(), "k", compute); err == nil {
		t.Fatal("first Do should fail")
	}
	v, hit, err := c.Do(context.Background(), "k", compute)
	if err != nil || string(v) != "ok" {
		t.Fatalf("second Do = %q, %v", v, err)
	}
	if hit {
		t.Error("second Do reported a hit after a failed first computation")
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2", calls)
	}
}

// TestComputePanicUnblocksWaiters: a panicking computation surfaces as an
// error to the leader, unblocks coalesced waiters, and stores nothing.
func TestComputePanicUnblocksWaiters(t *testing.T) {
	c := New(4, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	var waiterVal []byte
	var waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("boom")
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("leader error = %v, want compute panic", err)
		}
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Either coalesces onto the panicking flight (shares its error) or
		// — if it loses the race and arrives after cleanup — recomputes.
		waiterVal, _, waiterErr = c.Do(context.Background(), "k", func() ([]byte, error) {
			return []byte("recomputed"), nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter reach the flight table
	close(release)
	wg.Wait()
	if waiterErr != nil {
		if !strings.Contains(waiterErr.Error(), "panicked") {
			t.Errorf("waiter error = %v, want the shared compute panic", waiterErr)
		}
	} else if string(waiterVal) != "recomputed" {
		t.Errorf("waiter value = %q", waiterVal)
	}
	// The panicked result itself must never be resident; only a waiter's
	// clean recompute may be.
	if v, ok := c.Get("k"); ok && string(v) != "recomputed" {
		t.Errorf("panicked computation left entry %q", v)
	}
}

// TestWaiterHonorsOwnContext: a coalesced waiter whose context ends
// returns promptly with its own ctx error while the leader keeps running.
func TestWaiterHonorsOwnContext(t *testing.T) {
	c := New(4, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), "k", func() ([]byte, error) {
		close(entered)
		<-release
		return []byte("late"), nil
	})
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() ([]byte, error) {
			t.Error("waiter's compute ran")
			return nil, nil
		})
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want context.Canceled", err)
	}
}

// TestZeroEntriesStoresNothing: maxEntries 0 keeps singleflight but
// retains no results.
func TestZeroEntriesStoresNothing(t *testing.T) {
	c := New(0, nil)
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
			calls++
			return []byte(fmt.Sprintf("run %d", calls)), nil
		})
		if err != nil || hit {
			t.Fatalf("iteration %d: hit=%v err=%v", i, hit, err)
		}
		if want := fmt.Sprintf("run %d", i+1); string(v) != want {
			t.Errorf("iteration %d: got %q, want %q", i, v, want)
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len() = %d with retention disabled", c.Len())
	}
}

// TestCoalescedCounterExact: N concurrent Do calls for one key produce
// exactly one miss and N-1 coalesced observations — no double counting,
// no lost waiters. The leader's compute is gated on a channel and released
// only after the counter shows every other caller has parked in the
// in-flight table, so the split is deterministic.
func TestCoalescedCounterExact(t *testing.T) {
	const n = 8
	m := obs.NewMetrics()
	c := New(4, m)
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([][]byte, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
				<-release
				return []byte("payload"), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}

	// Wait until all n-1 followers are parked on the leader's flight, then
	// let the leader finish.
	deadline := time.Now().Add(10 * time.Second)
	for m.Counter("cache.coalesced") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %v callers coalesced after 10s, want %d", m.Counter("cache.coalesced"), n-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if miss := m.Counter("cache.miss"); miss != 1 {
		t.Errorf("cache.miss = %v, want exactly 1", miss)
	}
	if co := m.Counter("cache.coalesced"); co != n-1 {
		t.Errorf("cache.coalesced = %v, want exactly %d", co, n-1)
	}
	if hit := m.Counter("cache.hit"); hit != 0 {
		t.Errorf("cache.hit = %v, want 0 (no resident entry existed)", hit)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if string(results[i]) != "payload" {
			t.Errorf("caller %d got %q", i, results[i])
		}
		if !hits[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers reported hit=false, want exactly 1 (the leader)", leaders)
	}

	// A follow-up call is a resident hit: exactly one hit, no new miss.
	if _, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		t.Error("compute ran for a resident key")
		return nil, nil
	}); err != nil || !hit {
		t.Errorf("resident Do: hit=%v err=%v, want hit=true", hit, err)
	}
	if hit, miss := m.Counter("cache.hit"), m.Counter("cache.miss"); hit != 1 || miss != 1 {
		t.Errorf("after resident hit: hit=%v miss=%v, want 1/1", hit, miss)
	}
}

// put stores val under key through Do, failing the test on an error.
func put(t *testing.T, c *Cache, key, val string) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), key, func() ([]byte, error) { return []byte(val), nil }); err != nil {
		t.Fatal(err)
	}
}

// TestRecall: a remembered digest recalls its key's resident bytes and
// counts exactly one cache.hit; an unknown digest, and a digest whose key
// was evicted, recall nothing and count nothing.
func TestRecall(t *testing.T) {
	m := obs.NewMetrics()
	c := New(1, m)
	a, b := BodyDigest("/v1/plan", []byte("a")), BodyDigest("/v1/plan", []byte("b"))
	put(t, c, "ka", "va")
	c.Remember(a, "ka")
	if _, _, ok := c.Recall(b); ok {
		t.Error("an unknown digest was recalled")
	}
	if key, val, ok := c.Recall(a); !ok || key != "ka" || string(val) != "va" {
		t.Errorf("Recall(a) = %q, %q, %v; want ka, va, true", key, val, ok)
	}
	if hits := m.Counter("cache.hit"); hits != 1 {
		t.Errorf("cache.hit = %v after one recall, want 1", hits)
	}
	put(t, c, "kb", "vb") // evicts ka
	if _, _, ok := c.Recall(a); ok {
		t.Error("a digest whose key was evicted was recalled")
	}
	if hits := m.Counter("cache.hit"); hits != 1 {
		t.Errorf("cache.hit = %v after missed recalls, want 1", hits)
	}
	// The full path stores the key again and remembers the digest again.
	put(t, c, "ka", "va")
	c.Remember(a, "ka")
	if _, val, ok := c.Recall(a); !ok || string(val) != "va" {
		t.Errorf("re-remembered digest: %q, %v", val, ok)
	}
}

// TestRecallRefreshesLRU: a recall marks its entry most recently used, as
// a hit in Do does, so the next eviction takes the other entry.
func TestRecallRefreshesLRU(t *testing.T) {
	c := New(2, nil)
	a := BodyDigest("/v1/plan", []byte("a"))
	put(t, c, "ka", "va")
	put(t, c, "kb", "vb")
	c.Remember(a, "ka")
	if _, _, ok := c.Recall(a); !ok {
		t.Fatal("remembered digest not recalled")
	}
	put(t, c, "kc", "vc") // evicts kb, the least recently used
	if _, ok := c.Get("kb"); ok {
		t.Error("kb survived eviction; the recall did not refresh ka")
	}
	if _, _, ok := c.Recall(a); !ok {
		t.Error("ka was evicted after its recall")
	}
}

// TestAliasBoundFIFO: the alias table holds at most the entry bound and
// replaces the oldest remembered digest first, whatever was recalled since.
func TestAliasBoundFIFO(t *testing.T) {
	const max = 3
	c := New(max, nil)
	d := make([]Digest, 2*max)
	for i := range d {
		d[i] = BodyDigest("/v1/plan", []byte{byte(i)})
	}
	put(t, c, "k", "v") // every digest aliases the one resident key
	for i := 0; i < max; i++ {
		c.Remember(d[i], "k")
	}
	c.Remember(d[0], "k") // already remembered: keeps its place
	if _, _, ok := c.Recall(d[0]); !ok {
		t.Fatal("d0 forgotten before the table filled")
	}
	for i := max; i < len(d); i++ {
		c.Remember(d[i], "k")
		if n := len(c.aliases); n > max {
			t.Fatalf("alias table holds %d digests, bound %d", n, max)
		}
		for j := 0; j <= i; j++ {
			_, _, ok := c.Recall(d[j])
			if want := j > i-max; ok != want {
				t.Errorf("after remembering d%d: Recall(d%d) = %v, want %v", i, j, ok, want)
			}
		}
	}
}

// TestZeroEntriesRemembersNothing: a cache that retains no results keeps
// no aliases either.
func TestZeroEntriesRemembersNothing(t *testing.T) {
	c := New(0, nil)
	d := BodyDigest("/v1/plan", []byte("a"))
	put(t, c, "k", "v")
	c.Remember(d, "k")
	if len(c.aliases) != 0 || len(c.aliasFIFO) != 0 {
		t.Errorf("zero-entry cache remembered %d digests", len(c.aliases))
	}
	if _, _, ok := c.Recall(d); ok {
		t.Error("zero-entry cache recalled a digest")
	}
}

// TestBodyDigestTagsEndpoint: one body sent to two endpoints has two
// digests, and the endpoint cannot run into the body.
func TestBodyDigestTagsEndpoint(t *testing.T) {
	body := []byte(`{"circuit":{}}`)
	if BodyDigest("/v1/plan", body) == BodyDigest("/v1/bbp", body) {
		t.Error("one body has one digest on two endpoints")
	}
	if BodyDigest("/v1/plan", []byte("x")) == BodyDigest("/v1/pla", []byte("nx")) {
		t.Error("endpoint and body run together in the digest")
	}
}
