package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// planAllocBudget bounds the bytes one /v1/plan request on coarse hp may
// allocate. A miss under the default parameters allocates about 0.4 MB and
// one under any engine at most about 1 MB; the budget catches a parameter
// that buys unbounded work, as a negative route length weight once did
// (466 MB after half a second).
const planAllocBudget = 16 << 20

// FuzzPlanParams fuzzes the params member of a /v1/plan body on coarse hp
// with a 2 s deadline. The handler never panics and answers only 200, 400
// or 504, and a 200 allocates at most planAllocBudget bytes. Seeds: the
// probes of the parameter contract's defects (a negative route length
// weight, a zero or negative overflow penalty at capacity 17, alpha 5,
// capacity -3, route alpha -2), the fields an engine ignores, and the
// defaults spelled out.
func FuzzPlanParams(f *testing.F) {
	for _, params := range []string{
		`{"route_length_weight":-1}`,
		`{"route_overflow_penalty":0,"capacity":17}`,
		`{"route_overflow_penalty":-5,"capacity":17}`,
		`{"alpha":5}`,
		`{"capacity":-3}`,
		`{"route_alpha":-2}`,
		`{"backend":"mcf","max_ripup_passes":7}`,
		`{"backend":"mcf","skip_stage4":true}`,
		`{"backend":"mcf","route_alpha":0.5}`,
		`{"capacity":17,"target_stage1_avg":0.4}`,
		`{"backend":"rabid+lib","capacity":17,"target_stage1_avg":0.4}`,
		`{"backend":"mcf","capacity":17,"target_stage1_avg":0.4}`,
		`{"target_stage1_avg":0}`,
		`{"backend":"mcf","mcf_phases":12}`,
		`{"backend":"mcf","mcf_epsilon":0.3}`,
	} {
		f.Add(params)
	}
	cj, err := json.Marshal(suiteCircuit(f, "hp", 10, 10))
	if err != nil {
		f.Fatal(err)
	}
	h := New(Config{}).Handler()
	f.Fuzz(func(t *testing.T, params string) {
		body := []byte(`{"circuit":` + string(cj) + `,"params":` + params + `,"timeout_ms":2000}`)
		w := &discardWriter{h: http.Header{}}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		runtime.ReadMemStats(&m1)
		switch w.code {
		case http.StatusOK:
			if b := m1.TotalAlloc - m0.TotalAlloc; b > planAllocBudget {
				t.Errorf("params %s: a 200 allocated %d bytes, above the %d budget", params, b, planAllocBudget)
			}
		case http.StatusBadRequest, http.StatusGatewayTimeout:
		default:
			t.Errorf("params %s: status %d, want 200, 400 or 504", params, w.code)
		}
	})
}
