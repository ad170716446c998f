package cache

import (
	"context"
	"errors"
	"fmt"
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
		"UseMCFRouter":      {func(p *core.Params) { p.UseMCFRouter = true }, true},
		"Backend":           {func(p *core.Params) { p.Backend = "mcf" }, true},
		"Library":           {func(p *core.Params) { p.Library = tech.DefaultPlanningLibrary018() }, true},
		// astar returns identical path costs but may break tree tie-breaks
		// differently, so it keys separately. The dial/heap aliasing half of
		// SearchKernel's treatment is asserted below the sweep.
		"SearchKernel": {func(p *core.Params) { p.SearchKernel = route.KernelAstar }, true},
		"SteinerMode":  {func(p *core.Params) { p.SteinerMode = core.SteinerCostDist }, true},
		"MCFPhases":    {func(p *core.Params) { p.MCFPhases = 20 }, true},
		"MCFEpsilon":   {func(p *core.Params) { p.MCFEpsilon = 0.2 }, true},
		"Workers":      {func(p *core.Params) { p.Workers = 3 }, false},
		"Observer":     {func(p *core.Params) { p.Observer = obs.NewMetrics() }, false},
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
	// The dial kernel reproduces the heap's (key, node) pop order exactly
	// (TestDialByteIdentical*), so "dial", "heap", and the empty default must
	// share one content address.
	for _, kernel := range []string{route.KernelHeap, route.KernelDial} {
		p := core.DefaultParams()
		p.SearchKernel = kernel
		if k, _ := PlanKey(c, p); k != base {
			t.Errorf("SearchKernel %q minted its own key; byte-identical kernels must alias", kernel)
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

// TestPlanKeyRejectsWeightFunc: a custom routing weight cannot be content-
// addressed and must be refused, not silently ignored.
func TestPlanKeyRejectsWeightFunc(t *testing.T) {
	p := core.DefaultParams()
	p.RouteOpt.Weight = func(int) float64 { return 1 }
	if _, err := PlanKey(testCircuit(t, 1), p); err == nil {
		t.Error("PlanKey accepted a params with a custom Weight func")
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
