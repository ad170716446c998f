package netlist_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// coarseGrids are the suite's fast tilings.
var coarseGrids = map[string][2]int{
	"apte": {10, 11}, "xerox": {10, 10}, "hp": {10, 10},
	"ami33": {11, 10}, "ami49": {10, 10}, "playout": {11, 10},
	"ac3": {10, 10}, "xc5": {10, 10}, "hc7": {10, 10}, "a9c3": {10, 10},
}

// suite returns the ten suite circuits at their coarse and paper tilings.
func suite(t testing.TB) []*netlist.Circuit {
	t.Helper()
	var out []*netlist.Circuit
	for _, spec := range floorplan.Suite() {
		g := coarseGrids[spec.Name]
		for _, opt := range []floorplan.Options{{GridW: g[0], GridH: g[1]}, {}} {
			c, err := floorplan.Generate(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	return out
}

// checkEncoding holds EncodeJSON to json.Marshal, the oracle: the same
// bytes, or the same error.
func checkEncoding(t *testing.T, what string, c *netlist.Circuit) {
	t.Helper()
	want, werr := json.Marshal(c)
	var got bytes.Buffer
	gerr := netlist.EncodeJSON(&got, c)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%s: EncodeJSON error %v, json.Marshal error %v", what, gerr, werr)
		}
	case !bytes.Equal(got.Bytes(), want):
		i := 0
		for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
			i++
		}
		t.Errorf("%s: EncodeJSON differs from json.Marshal at byte %d: got %.40q, want %.40q",
			what, i, got.Bytes()[i:], want[i:])
	}
}

// edgeCircuit is a one-net circuit whose names and floats are the given
// values; shape picks nil or empty slices and a nil net.
func edgeCircuit(name string, x, y float64, shape uint8) *netlist.Circuit {
	n := &netlist.Net{ID: -7, Name: name + "/0", L: 3,
		Source: netlist.Pin{Tile: geom.Pt{X: 1, Y: -2}, Pos: geom.FPt{X: x, Y: y}},
		Sinks:  []netlist.Pin{{Pos: geom.FPt{X: y, Y: x}}, {Tile: geom.Pt{X: 3}}},
	}
	c := &netlist.Circuit{Name: name, GridW: 2, GridH: 1, TileUm: x, NumPads: 4,
		Nets:        []*netlist.Net{n},
		BufferSites: []int{0, 9},
		Blocks:      []geom.Rect{{Lo: geom.FPt{X: x}, Hi: geom.FPt{Y: y}}},
	}
	if shape&1 != 0 {
		n.Sinks = nil
	}
	if shape&2 != 0 {
		c.BufferSites = []int{}
	}
	if shape&4 != 0 {
		c.Blocks = nil
	}
	if shape&8 != 0 {
		c.Nets = append(c.Nets, nil)
	}
	if shape&16 != 0 {
		c.Nets = []*netlist.Net{}
	}
	if shape&32 != 0 {
		n.Sinks = []netlist.Pin{}
	}
	return c
}

// edgeNames and edgeFloats are the inputs on which json.Marshal's string
// escapes and float formatting are easiest to get wrong.
var (
	edgeNames = []string{"", "plain", "a<b>&c", "\u2028\u2029", "bad\xffutf8\xc3", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		`quote"back\slash`, "é中😀", "\xe2\x80"}
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21,
		123456789e12, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, 0.1, 1234.5678901234567}
)

// TestEncodeJSONMatchesMarshal: the canonical encoder writes json.Marshal's
// bytes for every suite circuit at both tilings, and for names and floats
// at the edges of its escapes and formats, nil and empty slices told
// apart; a NaN or infinite value fails both with the same error.
func TestEncodeJSONMatchesMarshal(t *testing.T) {
	for _, c := range suite(t) {
		checkEncoding(t, c.Name, c)
	}
	checkEncoding(t, "nil circuit", nil)
	for _, name := range edgeNames {
		for _, f := range edgeFloats {
			for shape := uint8(0); shape < 64; shape += 7 {
				checkEncoding(t, "edge", edgeCircuit(name, f, -f, shape))
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncoding(t, "non-finite", edgeCircuit("x", 1, f, 0))
		var buf bytes.Buffer
		if err := netlist.EncodeJSON(&buf, edgeCircuit("x", f, 1, 0)); err == nil {
			t.Errorf("EncodeJSON accepted %v", f)
		}
	}
}

// FuzzEncodeJSON holds the canonical encoder to json.Marshal on fuzzed
// names, coordinates (any float64 bit pattern: subnormals, ±0, NaN, ±Inf)
// and slice shapes.
func FuzzEncodeJSON(f *testing.F) {
	for i, name := range edgeNames {
		for j, x := range edgeFloats {
			f.Add(name, math.Float64bits(x), math.Float64bits(edgeFloats[(i+j)%len(edgeFloats)]), uint8(i*j))
		}
	}
	f.Add("x", math.Float64bits(math.NaN()), uint64(0), uint8(0))
	f.Add("x", math.Float64bits(math.Inf(-1)), uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, name string, xb, yb uint64, shape uint8) {
		checkEncoding(t, "fuzzed", edgeCircuit(name, math.Float64frombits(xb), math.Float64frombits(yb), shape))
	})
}

// circuitOnly admits no envelope member but the circuit.
func circuitOnly(name, value []byte) (int, bool) { return 0, false }

// decodeBoth decodes a {"circuit":…} body with the strict decoder and
// with encoding/json under DisallowUnknownFields.
func decodeBoth(t *testing.T, d *netlist.Decoder, body []byte) (strict *netlist.Circuit, ok bool, oracle *netlist.Circuit, err error) {
	t.Helper()
	strict, ok = d.DecodeEnvelope(body, circuitOnly)
	var req struct {
		Circuit *netlist.Circuit `json:"circuit"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	return strict, ok, req.Circuit, err
}

// TestDecodeEnvelopeMatchesUnmarshal: on every suite circuit at both
// tilings, compact and indented, on the slice shapes of the edge circuits
// without a nil net, and on bodies with a null circuit or list, the strict
// decoder accepts the body and decodes what encoding/json decodes, nil and
// empty slices told apart.
func TestDecodeEnvelopeMatchesUnmarshal(t *testing.T) {
	var d netlist.Decoder
	var circuits []*netlist.Circuit
	circuits = append(circuits, suite(t)...)
	for shape := uint8(0); shape < 64; shape++ {
		circuits = append(circuits, edgeCircuit("edge", 1.5e-7, -2, shape))
	}
	for _, c := range circuits {
		compact, err := json.Marshal(struct {
			Circuit *netlist.Circuit `json:"circuit"`
		}{c})
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(compact, []byte("[null")) || bytes.Contains(compact, []byte(",null]")) {
			continue // a nil net is a null array element, outside the subset
		}
		indented, err := json.MarshalIndent(struct {
			Circuit *netlist.Circuit `json:"circuit"`
		}{c}, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, append(indented, "\r\n"...)} {
			checkDecodes(t, &d, body)
		}
	}
	for _, body := range []string{
		`{"circuit":null}`, `{"circuit":null,"circuit":{"name":"x"}}`, `{"circuit" : null }`,
		`{"circuit":{"name":"x","nets":null,"buffer_sites":null,"blocks":null}}`,
		`{"circuit":{"nets":[{"id":1,"sinks": null},{"id":2,"sinks":[]},{"id":3}],"blocks":[]}}`,
	} {
		checkDecodes(t, &d, []byte(body))
	}
}

// checkDecodes fails unless the strict decoder accepts body and decodes
// the circuit encoding/json decodes.
func checkDecodes(t *testing.T, d *netlist.Decoder, body []byte) {
	t.Helper()
	got, ok, want, err := decodeBoth(t, d, body)
	if err != nil || !ok {
		t.Fatalf("%.60s: strict ok %v, encoding/json error %v", body, ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%.60s: the strict decoder's circuit differs from encoding/json's", body)
	}
}

// TestDecodeEnvelopeLeavesSubset: each body outside the canonical subset
// is refused at its first such byte, whatever encoding/json makes of it.
func TestDecodeEnvelopeLeavesSubset(t *testing.T) {
	const net = `{"id":0,"name":"n","source":{"tile":{"X":0,"Y":0},"pos":{"X":1,"Y":2}},"sinks":[],"l":1}`
	for _, body := range []string{
		``, `null`, `[]`, `{`, `{"circuit":{}`, `{"circuit":{}}}`, `{"circuit":{}} x`, `{"circuit":{}}{}`,
		`{"Circuit":{}}`, `{"circuit":{},"circuit":{}}`, `{"circuit":{},"circuit":null}`, `{"params":{}}`,
		`{"circuit":{"Name":"x"}}`, `{"circuit":{"name":"x","name":"y"}}`, `{"circuit":{"name":null}}`,
		`{"circuit":{"grid_w":null}}`, `{"circuit":{"tile_um":null}}`, `{"circuit":{"nets":[{"source":null}]}}`,
		`{"circuit":{"nets":nul}}`, `{"circuit":{"nets":nullx}}`, `{"circuit":{"nets":NULL}}`,
		`{"circuit":{"nets":null,"nets":[]}}`, `{"circuit":{"nets":[null]}}`, `{"circuit":{"buffer_sites":[null]}}`,
		`{"circuit":{"blocks":[null]}}`, `{"circuit":{"nets":[{"sinks":[null]}]}}`, `{"circuit":{}} null`,
		`{"circuit":{"name":"a\"b"}}`, `{"circuit":{"name":"é"}}`, `{"circuit":{}}` + "\x80",
		"{\"circuit\":{\"name\":\"tab\there\"}}", `{"circuit":{"grid_w":-0}}`, `{"circuit":{"grid_w":1e2}}`,
		`{"circuit":{"grid_w":1.0}}`, `{"circuit":{"grid_w":1234567890123456789}}`, `{"circuit":{"grid_w":01}}`,
		`{"circuit":{"grid_w":+1}}`, `{"circuit":{"tile_um":1e400}}`, `{"circuit":{"tile_um":.5}}`,
		`{"circuit":{"tile_um":1.}}`, `{"circuit":{"tile_um":1e}}`, `{"circuit":{"tile_um":-}}`,
		`{"circuit":{"tile_um":NaN}}`, `{"circuit":{"tile_um":"1"}}`, `{"circuit":{"nets":[null]}}`,
		`{"circuit":{"nets":[` + net + `,]}}`, `{"circuit":{"nets":[,` + net + `]}}`,
		`{"circuit":{"buffer_sites":[1 2]}}`, `{"circuit":{"blocks":[{"lo":{}}]}}`, `{"circuit":{"colour":1}}`,
		`{"circuit":{"nets":[` + strings.Replace(net, `"l":1`, `"l":1,"l":2`, 1) + `]}}`,
		`{"circuit":{"nets":[` + strings.Replace(net, `"X":0`, `"x":0`, 1) + `]}}`,
		`{"circuit":{,}}`, `{,}`, `{"circuit" {}}`,
	} {
		var d netlist.Decoder
		if c, ok := d.DecodeEnvelope([]byte(body), circuitOnly); ok {
			t.Errorf("%s: accepted, circuit %+v", body, c)
		}
	}
}
