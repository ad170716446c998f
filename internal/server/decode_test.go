package server

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/netlist"
)

// coarseGrids are the suite's fast tilings.
var coarseGrids = map[string][2]int{
	"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
	"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
	"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
}

// suiteBodies returns a /v1/plan body for each coarse suite circuit, as
// the benchmark sends it, and a /v1/bbp body for its two-pin
// decomposition.
func suiteBodies(t testing.TB) (plans, bbps [][]byte) {
	for _, spec := range floorplan.Suite() {
		g := coarseGrids[spec.Name]
		c := suiteCircuit(t, spec.Name, g[0], g[1])
		plans = append(plans, planBody(t, c, `,"params":{"target_stage1_avg":0.25}`))
		cj, err := json.Marshal(c.DecomposeTwoPin())
		if err != nil {
			t.Fatal(err)
		}
		bbps = append(bbps, []byte(`{"circuit":`+string(cj)+`,"capacity":4}`))
	}
	return plans, bbps
}

// fallbackBodies returns one body per way of leaving the canonical subset,
// each a coarse apte plan body changed in one place. encoding/json accepts
// some of them and refuses others.
func fallbackBodies(t testing.TB) map[string]string {
	body := string(planBody(t, testCircuit(t, 1), `,"timeout_ms":5000`))
	edit := func(old, new string) string {
		if !strings.Contains(body, old) {
			t.Fatalf("the apte body has no %s", old)
		}
		return strings.Replace(body, old, new, 1)
	}
	const net0 = `"nets":[{"id":0,`
	return map[string]string{
		"case-variant key": edit(`"grid_w":`, `"Grid_W":`),
		"duplicate key":    edit(`"timeout_ms":5000`, `"timeout_ms":1,"timeout_ms":5000`),
		"null element":     edit(net0, `"nets":[null,{"id":0,`),
		"escape":           edit(`"name":"apte"`, `"name":"ap\u0074e"`),
		"non-ASCII name":   edit(`"name":"apte"`, `"name":"apté"`),
		"minus zero int":   edit(net0, `"nets":[{"id":-0,`),
		"exponent int":     edit(net0, `"nets":[{"id":1e2,`),
		"19-digit int":     edit(net0, `"nets":[{"id":1234567890123456789,`),
		"float overflow":   edit(`"tile_um":`, `"tile_um":1e400,"tile_um":`),
		"trailing brace":   body + "}",
	}
}

// TestDecodeRequestFallback: each body outside the canonical subset is
// refused by the strict path and decoded by decodeRequest exactly as
// decodeJSON decodes it, the same value or the same error.
func TestDecodeRequestFallback(t *testing.T) {
	var d netlist.Decoder
	for name, body := range fallbackBodies(t) {
		var strict, got, want planRequest
		if decodeStrict(&d, []byte(body), &strict) {
			t.Errorf("%s: the strict path accepted it", name)
		}
		gerr, werr := decodeRequest([]byte(body), &got), decodeJSON([]byte(body), &want)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Errorf("%s: decodeRequest error %v, decodeJSON error %v", name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodeRequest and decodeJSON decode different requests", name)
		}
	}
}

// TestEnvelopeMembers: every JSON member of planRequest and bbpRequest
// reaches its own field through the envelope, the circuit through
// setCircuit and each other member through member with a bit of its own.
// The members are enumerated by reflection, so a new request member fails
// this test until decodeStrict can decode it, rather than sending every
// body that carries it down the fallback path.
func TestEnvelopeMembers(t *testing.T) {
	c := new(netlist.Circuit)
	for _, req := range []envelope{&planRequest{}, &bbpRequest{}} {
		v := reflect.ValueOf(req).Elem()
		var bits uint
		for i := 0; i < v.NumField(); i++ {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			field := v.Field(i).Addr()
			if name == "circuit" {
				req.setCircuit(c)
				if got, ok := v.Field(i).Interface().(*netlist.Circuit); !ok || got != c {
					t.Errorf("%T: setCircuit does not set the circuit member", req)
				}
				continue
			}
			got, bit := req.member([]byte(name))
			if p := reflect.ValueOf(got); !p.IsValid() || p.Type() != field.Type() || p.Pointer() != field.Pointer() {
				t.Errorf("%T: member(%q) returns %T, not the field of that name", req, name, got)
			}
			if bit == 0 || bit&(bit-1) != 0 || bits&bit != 0 {
				t.Errorf("%T: member(%q) has bit %b, not one of its own (%b taken)", req, name, bit, bits)
			}
			bits |= bit
		}
		req.reset()
		if !v.IsZero() {
			t.Errorf("%T: reset leaves %+v", req, req)
		}
	}
}

// FuzzDecodeRequest: whenever the strict path accepts a body as a plan or
// a bbp request, encoding/json under DisallowUnknownFields accepts it too
// and decodes an equal request, nil and empty slices told apart. Seeds:
// the suite's plan and bbp bodies, a body with null lists, every
// TestBadRequests and TestCircuitBadRequests body, and one body per way
// out of the subset.
func FuzzDecodeRequest(f *testing.F) {
	plans, bbps := suiteBodies(f)
	for _, b := range append(plans, bbps...) {
		f.Add(b)
	}
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	_, cases := circuitBadRequests(f)
	for _, tc := range cases {
		for _, path := range []string{"/v1/plan", "/v1/bbp"} {
			f.Add(circuitBody(path, tc.circuit))
		}
	}
	for _, body := range fallbackBodies(f) {
		f.Add([]byte(body))
	}
	nulls := testCircuit(f, 1)
	nulls.Blocks, nulls.Nets[0].Sinks = nil, nil
	f.Add(planBody(f, nulls, ""))
	f.Fuzz(func(t *testing.T, body []byte) {
		var d netlist.Decoder
		for _, pair := range [][2]envelope{{&planRequest{}, &planRequest{}}, {&bbpRequest{}, &bbpRequest{}}} {
			strict, oracle := pair[0], pair[1]
			if !decodeStrict(&d, body, strict) {
				continue
			}
			if err := decodeJSON(body, oracle); err != nil {
				t.Fatalf("the strict path accepted a body encoding/json refuses (%v): %q", err, body)
			}
			if !reflect.DeepEqual(strict, oracle) {
				t.Fatalf("the strict path decoded a %T other than encoding/json's: %q", strict, body)
			}
		}
	})
}

// decodeAllocBudget is the allocation budget of a warm strict decode of a
// plan body with params: the seven slabs of the circuit, and the params
// member's pass through encoding/json.
const decodeAllocBudget = 16

// TestDecodeRequestAllocBound: once its scratch is warm, the strict path
// allocates the same number of objects for the coarse playout plan body
// (1,294 nets) as for the coarse hp one (68 nets), within
// decodeAllocBudget: the circuit goes into a fixed set of slabs, and only
// the params member meets encoding/json.
func TestDecodeRequestAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime changes allocation counts")
	}
	var d netlist.Decoder
	allocs := map[string]float64{}
	for _, name := range []string{"hp", "playout"} {
		g := coarseGrids[name]
		body := planBody(t, suiteCircuit(t, name, g[0], g[1]), `,"params":{"target_stage1_avg":0.25}`)
		var req planRequest
		if !decodeStrict(&d, body, &req) {
			t.Fatalf("%s: the strict path refused the body", name)
		}
		allocs[name] = testing.AllocsPerRun(20, func() {
			req = planRequest{}
			decodeStrict(&d, body, &req)
		})
	}
	t.Logf("warmed allocations per strict decode: hp %.0f, playout %.0f", allocs["hp"], allocs["playout"])
	if allocs["playout"] != allocs["hp"] || allocs["playout"] > decodeAllocBudget {
		t.Errorf("the strict path allocates %.0f objects for playout and %.0f for hp; want the same count, at most %d",
			allocs["playout"], allocs["hp"], decodeAllocBudget)
	}
}

// decodeBenchBodies returns the coarse playout /v1/plan body as the
// benchmark sends it, and three variants other clients write: "blocks"
// null after every net, as a Go client's json.Marshal writes a circuit
// without blocks, which stays in the canonical subset; a \u escape in the
// last net's name, as Python's json.dumps writes a non-ASCII name, which
// the strict decoder refuses before decoding; and the last net's "l"
// given twice, which leaves the subset at the last net.
func decodeBenchBodies(tb testing.TB) []struct {
	name string
	body []byte
} {
	plans, _ := suiteBodies(tb)
	body := string(plans[5])
	lo := strings.Index(body, `"blocks":[`)
	name := strings.LastIndex(body, `"name":"`) + len(`"name":"`)
	l := strings.LastIndex(body, `"l":`)
	if lo < 0 || name < len(`"name":"`) || l < 0 {
		tb.Fatal("the playout body has no blocks or no nets")
	}
	hi := lo + strings.IndexByte(body[lo:], ']') + 1
	return []struct {
		name string
		body []byte
	}{
		{"canonical", []byte(body)},
		{"null-blocks", []byte(body[:lo] + `"blocks":null` + body[hi:])},
		{"escape-last-net", []byte(body[:name] + fmt.Sprintf(`\u%04x`, body[name]) + body[name+1:])},
		{"duplicate-last-net", []byte(body[:l] + `"l":0,` + body[l:])},
	}
}

// BenchmarkDecodeRequest decodes coarse playout /v1/plan bodies through
// decodeRequest (see decodeBenchBodies). A body that leaves the subset
// pays for the strict decode up to its first byte outside, then for the
// whole encoding/json decode.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, bc := range decodeBenchBodies(b) {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req planRequest
				if err := decodeRequest(bc.body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
