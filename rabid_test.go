package rabid

import (
	"bytes"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	c, err := GenerateBenchmark("apte", GenOptions{GridW: 10, GridH: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, BenchmarkParams("apte"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	final := res.Stages[3]
	if final.Buffers == 0 {
		t.Error("no buffers inserted")
	}
	if final.Overflows != 0 {
		t.Errorf("%d overflows remain", final.Overflows)
	}
}

func TestSuiteAndSpecLookup(t *testing.T) {
	if len(Suite()) != 10 {
		t.Errorf("suite size %d", len(Suite()))
	}
	if _, err := BenchmarkSpec("playout"); err != nil {
		t.Error(err)
	}
	if _, err := BenchmarkSpec("bogus"); err == nil {
		t.Error("bogus spec accepted")
	}
	if _, err := GenerateBenchmark("bogus", GenOptions{}); err == nil {
		t.Error("bogus generate accepted")
	}
}

func TestCircuitJSONRoundTripThroughFacade(t *testing.T) {
	c, err := GenerateBenchmark("hp", GenOptions{GridW: 10, GridH: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCircuit(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name || len(got.Nets) != len(c.Nets) {
		t.Error("round trip lost data")
	}
}

func TestTableDispatch(t *testing.T) {
	tb, err := Table(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "apte") {
		t.Error("table 1 missing apte")
	}
	if _, err := Table(9, nil); err == nil {
		t.Error("table 9 accepted")
	}
}
