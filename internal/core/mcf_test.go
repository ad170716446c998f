package core

import (
	"context"
	"testing"
)

// TestMCFStage2Alternative: the mcf engine's multicommodity-flow Stage 2
// replaces the Stage-1 routes wholesale; it must leave no overflow, the
// buffer DP must still place buffers, and the graph's wire accounting must
// stay consistent with the substituted routes.
func TestMCFStage2Alternative(t *testing.T) {
	c := smallCircuit(t, 9, 35, 12, 12, 3, 4)
	res, err := RunMCFContext(context.Background(), c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages[1].Overflows != 0 {
		t.Errorf("MCF stage 2 left %d overflows", res.Stages[1].Overflows)
	}
	final := res.Stages[len(res.Stages)-1]
	if final.Overflows != 0 || final.Buffers == 0 {
		t.Errorf("MCF pipeline final: %+v", final)
	}
	// Wire accounting stays consistent through the MCF substitution.
	sum := 0
	for e := 0; e < res.Graph.NumEdges(); e++ {
		sum += res.Graph.Usage(e)
	}
	want := 0
	for _, rt := range res.Routes {
		want += rt.NumEdges()
	}
	if sum != want {
		t.Errorf("usage %d != route edges %d", sum, want)
	}
	for i, rt := range res.Routes {
		if err := rt.Validate(res.Graph.InGrid); err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
	}
}
