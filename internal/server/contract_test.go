package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// The outcomes a request field may have on an engine, against the same
// request without it.
const (
	changes = "changes" // 200 with different report bytes under another ETag
	refused = "refused" // 400
	shares  = "shares"  // 200, a cache hit under the same ETag
)

// contractRow is the witness of one request field: a coarse suite
// circuit, the params every request of the row carries besides the
// backend (JSON members, possibly empty), and a cell per engine.
type contractRow struct {
	circuit string
	base    string
	cells   map[string]contractCell
}

// contractCell is the field's witness value on one engine, as JSON, and
// the outcome it must have.
type contractCell struct{ value, want string }

// witnessGrids are the coarse tilings of the contract's witness circuits.
var witnessGrids = map[string][2]int{"hp": {10, 10}, "ami33": {11, 10}, "hc7": {10, 10}}

// contractRows holds one row per planParams field. Stage 2 rips up only
// an overflowing circuit, so the fields it reads are witnessed at
// capacity 8, where coarse ami33 overflows. The mcf engine ignores
// route_alpha, max_ripup_passes and skip_stage4, so they share its key.
func contractRows(t *testing.T) map[string]contractRow {
	lib, err := json.Marshal(tech.DefaultPlanningLibrary018()[:1])
	if err != nil {
		t.Fatal(err)
	}
	one := string(lib)
	return map[string]contractRow{
		"alpha": {"hp", "", map[string]contractCell{
			"rabid": {"0.8", changes}, "rabid+lib": {"0.8", changes}, "mcf": {"0.8", changes}}},
		"route_alpha": {"ami33", `,"capacity":8`, map[string]contractCell{
			"rabid": {"0.8", changes}, "rabid+lib": {"0.8", changes}, "mcf": {"0.8", shares}}},
		"route_length_weight": {"ami33", "", map[string]contractCell{
			"rabid": {"0.5", changes}, "rabid+lib": {"0.5", changes}, "mcf": {"0.5", changes}}},
		"route_overflow_penalty": {"hc7", "", map[string]contractCell{
			"rabid": {"0.01", changes}, "rabid+lib": {"0.01", changes}, "mcf": {"0.01", changes}}},
		"max_ripup_passes": {"ami33", `,"capacity":8`, map[string]contractCell{
			"rabid": {"1", changes}, "rabid+lib": {"1", changes}, "mcf": {"7", shares}}},
		"capacity": {"hp", "", map[string]contractCell{
			"rabid": {"17", changes}, "rabid+lib": {"17", changes}, "mcf": {"17", changes}}},
		"target_stage1_avg": {"hp", "", map[string]contractCell{
			"rabid": {"0.4", changes}, "rabid+lib": {"0.4", changes}, "mcf": {"0.4", changes}}},
		"skip_stage4": {"hp", "", map[string]contractCell{
			"rabid": {"true", changes}, "rabid+lib": {"true", changes}, "mcf": {"true", shares}}},
		"disable_demand_term": {"hp", "", map[string]contractCell{
			"rabid": {"true", changes}, "rabid+lib": {"true", changes}, "mcf": {"true", changes}}},
		// The backend row replaces the engine: the empty name spells the
		// default engine, and any other engine plans differently.
		"backend": {"hp", "", map[string]contractCell{
			"rabid": {`""`, shares}, "rabid+lib": {`"rabid"`, changes}, "mcf": {`"rabid"`, changes}}},
		"library": {"hp", "", map[string]contractCell{
			"rabid": {one, refused}, "rabid+lib": {one, changes}, "mcf": {one, refused}}},
		"mcf_phases": {"hp", "", map[string]contractCell{
			"rabid": {"4", refused}, "rabid+lib": {"4", refused}, "mcf": {"4", changes}}},
		"mcf_epsilon": {"hp", "", map[string]contractCell{
			"rabid": {"0.1", refused}, "rabid+lib": {"0.1", refused}, "mcf": {"0.1", changes}}},
	}
}

// planFields lists the JSON names of planParams' fields.
func planFields() []string {
	var out []string
	rt := reflect.TypeOf(planParams{})
	for i := 0; i < rt.NumField(); i++ {
		out = append(out, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
	}
	return out
}

// TestPlanParamsContract is the parameter contract's acceptance table:
// for every engine and every planParams field, setting the field to its
// witness value on the row's witness circuit either changes the report
// bytes against the same request without the field, or is a 400, or is
// answered from that request's cache entry under its ETag. The fields are
// enumerated by reflection, so a new request field, or a new engine,
// fails this test until its row or cell is written.
func TestPlanParamsContract(t *testing.T) {
	rows := contractRows(t)
	fields := planFields()
	for _, f := range fields {
		if _, ok := rows[f]; !ok {
			t.Errorf("request field %q has no contract row", f)
		}
	}
	if len(rows) != len(fields) {
		t.Errorf("%d contract rows for %d request fields %v", len(rows), len(fields), fields)
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	circuits := map[string]*netlist.Circuit{}
	for name, g := range witnessGrids {
		circuits[name] = suiteCircuit(t, name, g[0], g[1])
	}
	type answer struct {
		status       int
		cache, etag  string
		report, body string
	}
	post := func(c *netlist.Circuit, params string) answer {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, `,"params":{`+params+`}`))
		a := answer{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), etag: resp.Header.Get("ETag"), body: string(b)}
		if resp.StatusCode == http.StatusOK {
			var pr struct {
				Report json.RawMessage `json:"report"`
			}
			if err := json.Unmarshal(b, &pr); err != nil {
				t.Fatal(err)
			}
			a.report = string(pr.Report)
		}
		return a
	}
	for _, f := range fields {
		row, ok := rows[f]
		if !ok {
			continue
		}
		c := circuits[row.circuit]
		if c == nil {
			t.Fatalf("%s: witness circuit %q is not one of %v", f, row.circuit, witnessGrids)
		}
		if len(row.cells) != len(backend.Names()) {
			t.Errorf("%s: %d cells for engines %v", f, len(row.cells), backend.Names())
		}
		for _, engine := range backend.Names() {
			cell, ok := row.cells[engine]
			if !ok {
				t.Errorf("%s: no cell for engine %s", f, engine)
				continue
			}
			base := post(c, fmt.Sprintf(`"backend":%q%s`, engine, row.base))
			if base.status != http.StatusOK {
				t.Fatalf("%s/%s: base request status %d: %s", f, engine, base.status, base.body)
			}
			params := fmt.Sprintf(`"backend":%q%s,%q:%s`, engine, row.base, f, cell.value)
			if f == "backend" {
				params = fmt.Sprintf(`"backend":%s%s`, cell.value, row.base)
			}
			got := post(c, params)
			name := fmt.Sprintf("%s/%s on %s (%s)", f, engine, row.circuit, params)
			switch cell.want {
			case changes:
				if got.status != http.StatusOK || got.report == base.report || got.etag == base.etag {
					t.Errorf("%s: status %d, same report %v, same ETag %v; want a different plan",
						name, got.status, got.report == base.report, got.etag == base.etag)
				}
			case refused:
				if got.status != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400", name, got.status)
				}
			case shares:
				if got.status != http.StatusOK || got.cache != "hit" || got.etag != base.etag {
					t.Errorf("%s: status %d, X-Cache %q, ETag %s; want a hit under %s",
						name, got.status, got.cache, got.etag, base.etag)
				}
			default:
				t.Fatalf("%s: unknown outcome %q", name, cell.want)
			}
		}
	}
}

// TestPlanIgnoredFieldsShareKey: a request that differs from another only
// in a field its engine ignores, or in spelling out a default, is answered
// from that request's cache entry under its ETag, on coarse hp — the mcf
// engine's router alpha, rip-up passes and Stage-4 switch, on every engine
// the calibration target once a capacity is given, and the defaults the
// pipeline reads a zero as: calibration target 0, mcf phases 12 and mcf
// epsilon 0.3.
func TestPlanIgnoredFieldsShareKey(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	c := suiteCircuit(t, "hp", 10, 10)
	for _, tc := range []struct{ base, variant string }{
		{`"backend":"mcf"`, `"backend":"mcf","max_ripup_passes":7`},
		{`"backend":"mcf"`, `"backend":"mcf","skip_stage4":true`},
		{`"backend":"mcf"`, `"backend":"mcf","route_alpha":0.5`},
		{`"capacity":17`, `"capacity":17,"target_stage1_avg":0.4`},
		{`"backend":"rabid+lib","capacity":17`, `"backend":"rabid+lib","capacity":17,"target_stage1_avg":0.4`},
		{`"backend":"mcf","capacity":17`, `"backend":"mcf","capacity":17,"target_stage1_avg":0.4`},
		{``, `"target_stage1_avg":0`},
		{`"backend":"mcf"`, `"backend":"mcf","mcf_phases":12`},
		{`"backend":"mcf"`, `"backend":"mcf","mcf_epsilon":0.3`},
	} {
		resp, b := postJSON(t, ts.URL+"/v1/plan", planBody(t, c, `,"params":{`+tc.base+`}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.base, resp.StatusCode, b)
		}
		etag := resp.Header.Get("ETag")
		resp, b = postJSON(t, ts.URL+"/v1/plan", planBody(t, c, `,"params":{`+tc.variant+`}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.variant, resp.StatusCode, b)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" || resp.Header.Get("ETag") != etag {
			t.Errorf("%s after %s: X-Cache %q, ETag %s; want a hit under %s", tc.variant, tc.base, got, resp.Header.Get("ETag"), etag)
		}
	}
}
