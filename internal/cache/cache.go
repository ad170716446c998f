// Package cache is the content-addressed result cache of the planning
// service: a canonical deterministic hash of the full problem statement
// (circuit, parameters, technology) keys the serialized response bytes, an
// LRU bound caps memory, and an in-flight table collapses concurrent
// identical requests onto a single computation (singleflight).
//
// Caching a planning result is only sound because RABID runs are
// bit-deterministic for a given input (TestSeededDeterminism, and
// Params.Workers never changes results) — the cached bytes ARE the bytes a
// fresh run would produce, which the service tests prove byte-for-byte.
//
// Beside the keyed entries sits a bounded alias table from the Digest of a
// request body to the key that body resolved to, so that a byte-identical
// re-request is answered (Recall) without parsing it again.
//
// Hit, miss, coalesced-request, and eviction counts are emitted through
// the standard observer tap ("cache.hit", "cache.miss", "cache.coalesced",
// "cache.evict" counters and the "cache.entries" gauge), so /v1/metricz
// exposes cache effectiveness alongside the pipeline's own telemetry.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/tech"
)

// keyVersion is baked into every key. Bump it when the key material's
// layout changes (a field added, removed, renamed or re-encoded), so keys
// of the old layout cannot alias new ones. A change that only alters what
// some request computes does not bump it: the cache lives only in memory,
// and the one thing that persists, the journal, re-derives every entry's
// key on replay (cmd/journal replay), so a bump fails key verification for
// every recorded entry, not just the changed ones. Such entries replay
// with result and event mismatches instead, which name exactly the
// requests whose results moved. Version 5 dropped the retired Steiner
// mode from the material, and backend.Normalize now resets the fields an
// engine ignores before keying: journals recorded under version 4 no
// longer verify (DESIGN.md "Planning backends").
const keyVersion = 5

// The key material of a request is one JSON object: the key version, the
// request kind, the circuit, then the request's other result-affecting
// fields. It is streamed into SHA-256 rather than marshalled whole: the
// circuit through netlist.EncodeJSON, the rest through json.Marshal of a
// struct holding only those fields (paramsMaterial, bbpParams). The bytes
// hashed are exactly those json.Marshal writes for the whole object, so
// streaming moved no key (TestKeysMatchMarshalledMaterial holds the two to
// each other).

// paramsMaterial enumerates, exhaustively and in a fixed order, every
// field of a plan request besides the circuit that can affect the result.
// Fields deliberately absent: Params.Workers (results are bit-identical for
// every value), Params.Observer and RouteOpt.Obs (telemetry only), and
// RouteOpt.Stage / RouteOpt.Pass (transient labels the pipeline
// overwrites). Its JSON encoding is deterministic — fixed field order, no
// maps — so identical requests always hash identically.
type paramsMaterial struct {
	Alpha             float64   `json:"alpha"`
	RouteAlpha        float64   `json:"route_alpha"`
	RouteLengthWeight float64   `json:"route_length_weight"`
	RouteOverflowPen  float64   `json:"route_overflow_penalty"`
	MaxRipupPasses    int       `json:"max_ripup_passes"`
	Capacity          int       `json:"capacity"`
	TargetStage1Avg   float64   `json:"target_stage1_avg"`
	Tech              tech.Tech `json:"tech"`
	SkipStage4        bool      `json:"skip_stage4"`
	DisableDemandTerm bool      `json:"disable_demand_term"`
	// Backend and Library identify the planning engine. Callers must
	// normalize Params first (backend.Normalize): "" and "rabid" are the
	// same engine and must share one address, and "rabid+lib" must have its
	// default library spelled out so a future default change cannot alias
	// entries computed under the old one.
	Backend    string         `json:"backend"`
	Library    []tech.LibGate `json:"library,omitempty"`
	MCFPhases  int            `json:"mcf_phases"`
	MCFEpsilon float64        `json:"mcf_epsilon"`
}

// PlanKey derives the content address of a RABID run: a hex SHA-256 over
// the canonical serialization of (circuit, params, tech). It fails when
// the parameters carry a custom RouteOpt.Weight — a result-affecting input
// the key material does not cover.
func PlanKey(c *netlist.Circuit, p core.Params) (string, error) {
	if p.RouteOpt.Weight != nil {
		return "", fmt.Errorf("cache: params with a custom RouteOpt.Weight are not content-addressable")
	}
	return hash(planHead, c, paramsMaterial{
		Alpha:             p.Alpha,
		RouteAlpha:        p.RouteOpt.Alpha,
		RouteLengthWeight: p.RouteOpt.LengthWeight,
		RouteOverflowPen:  p.RouteOpt.OverflowPenalty,
		MaxRipupPasses:    p.MaxRipupPasses,
		Capacity:          p.Capacity,
		TargetStage1Avg:   p.TargetStage1Avg,
		Tech:              p.Tech,
		SkipStage4:        p.SkipStage4,
		DisableDemandTerm: p.DisableDemandTerm,
		Backend:           p.Backend,
		Library:           p.Library,
		MCFPhases:         p.MCFPhases,
		MCFEpsilon:        p.MCFEpsilon,
	})
}

// bbpParams is the key material of the BBP baseline endpoint besides the
// circuit.
type bbpParams struct {
	Capacity int       `json:"capacity"`
	Tech     tech.Tech `json:"tech"`
}

// BBPKey derives the content address of a BBP baseline run.
func BBPKey(c *netlist.Circuit, capacity int, t tech.Tech) (string, error) {
	return hash(bbpHead, c, bbpParams{Capacity: capacity, Tech: t})
}

// The key material's opening members, up to the circuit's value, per
// request kind.
var (
	planHead = []byte(`{"version":` + strconv.Itoa(keyVersion) + `,"kind":"plan","circuit":`)
	bbpHead  = []byte(`{"version":` + strconv.Itoa(keyVersion) + `,"kind":"bbp","circuit":`)
)

// hash streams one request's key material into SHA-256: head, the circuit,
// then the members of rest, a struct whose JSON encoding is an object.
func hash(head []byte, c *netlist.Circuit, rest any) (string, error) {
	tail, err := json.Marshal(rest)
	if err != nil {
		return "", fmt.Errorf("cache: serializing key material: %w", err)
	}
	h := sha256.New()
	h.Write(head)
	if err := netlist.EncodeJSON(h, c); err != nil {
		return "", fmt.Errorf("cache: serializing key material: %w", err)
	}
	tail[0] = ','
	h.Write(tail)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// Digest identifies a request by its bytes: the SHA-256 of its endpoint
// path, a 0 byte and its body (see BodyDigest).
type Digest [sha256.Size]byte

// BodyDigest returns the Digest of a request body sent to endpoint. The
// endpoint is part of the digest because one body can mean different
// requests on different endpoints: {"circuit": X} is a valid plan request,
// but on /v1/bbp it asks for capacity 0, which is a client error.
func BodyDigest(endpoint string, body []byte) Digest {
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(body)
	var d Digest
	h.Sum(d[:0])
	return d
}

// entry is one resident cache line.
type entry struct {
	key string
	val []byte
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is the bounded content-addressed store. Values are treated as
// immutable byte slices: Do and Get return the stored slice itself, so
// callers must not modify it (the server writes it straight to the wire).
// Safe for concurrent use.
type Cache struct {
	o obs.Observer

	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	inFlt map[string]*flight

	// aliases maps a remembered request digest to its key. It holds at most
	// max digests; aliasFIFO lists them in the order they were remembered,
	// as a ring whose oldest slot is aliasNext once it is full.
	aliases   map[Digest]string
	aliasFIFO []Digest
	aliasNext int
}

// New returns a cache retaining at most maxEntries results (LRU eviction).
// maxEntries == 0 disables retention — requests still collapse through the
// singleflight table, but nothing is stored. o (may be nil) receives the
// cache.* counters.
func New(maxEntries int, o obs.Observer) *Cache {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cache{
		o:     o,
		max:   maxEntries,
		ll:    list.New(),
		items: map[string]*list.Element{},
		inFlt: map[string]*flight{},

		aliases: map[Digest]string{},
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the retention bound (0 = retention disabled). Alongside Len
// it gives /v1/healthz its cache-occupancy gauge.
func (c *Cache) Cap() int { return c.max }

// Get returns the cached bytes for key, marking it most recently used.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.lookup(key)
	if ok {
		c.count("cache.hit")
	}
	return v, ok
}

// lookup is Get without counters; callers hold mu.
func (c *Cache) lookup(key string) ([]byte, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Do returns the bytes for key, computing them at most once across all
// concurrent callers: a resident entry is returned immediately (hit=true);
// if an identical computation is already in flight the caller waits for it
// and shares its bytes (hit=true — the response is another request's
// result, byte-identical by determinism); otherwise compute runs on the
// calling goroutine and its result is stored (hit=false). Errors are never
// cached. A waiting caller whose ctx ends returns ctx.Err() without
// disturbing the in-flight computation (which runs under the leader's own
// context).
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	c.mu.Lock()
	if v, ok := c.lookup(key); ok {
		c.count("cache.hit")
		c.mu.Unlock()
		return v, true, nil
	}
	if fl, ok := c.inFlt[key]; ok {
		c.count("cache.coalesced")
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.val, fl.err == nil, fl.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.inFlt[key] = fl
	c.count("cache.miss")
	c.mu.Unlock()

	fl.val, fl.err = runCompute(compute)

	c.mu.Lock()
	delete(c.inFlt, key)
	if fl.err == nil {
		c.store(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, false, fl.err
}

// Recall answers a request by its digest alone: it returns the key and
// bytes the digest was remembered under, provided that key is still
// resident. A recall refreshes the entry's LRU slot and counts cache.hit,
// as a hit in Do does. An unknown digest, or one whose key was evicted, is
// not a recall; the caller then takes the full path, and a Remember after
// it records the digest again.
func (c *Cache) Recall(d Digest) (key string, val []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if key, ok = c.aliases[d]; !ok {
		return "", nil, false
	}
	if val, ok = c.lookup(key); !ok {
		return "", nil, false
	}
	c.count("cache.hit")
	return key, val, true
}

// Remember records that the request with digest d resolved to key. Call it
// only once Do has returned key's bytes without error: an alias must never
// stand for a request that failed. The table holds at most as many
// digests as the cache holds entries, and replaces the oldest first; a
// cache that retains nothing remembers nothing.
func (c *Cache) Remember(d Digest, key string) {
	if c.max == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.aliases[d]; !ok {
		if len(c.aliasFIFO) < c.max {
			c.aliasFIFO = append(c.aliasFIFO, d)
		} else {
			delete(c.aliases, c.aliasFIFO[c.aliasNext])
			c.aliasFIFO[c.aliasNext] = d
			c.aliasNext = (c.aliasNext + 1) % c.max
		}
	}
	c.aliases[d] = key
}

// runCompute shields the flight table from a panicking computation: the
// panic becomes the flight's error, so waiters unblock instead of hanging
// on a leaked entry.
func runCompute(compute func() ([]byte, error)) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cache: compute panicked: %v", r)
		}
	}()
	return compute()
}

// store inserts or refreshes key (callers hold mu), evicting from the LRU
// tail once over the bound.
func (c *Cache) store(key string, val []byte) {
	if c.max == 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.count("cache.evict")
	}
	obs.Emit(c.o, obs.Event{Kind: obs.KindGauge, Scope: "cache.entries", Net: -1, Value: float64(c.ll.Len())})
}

func (c *Cache) count(scope string) {
	obs.Emit(c.o, obs.Event{Kind: obs.KindCounter, Scope: scope, Net: -1, Value: 1})
}
