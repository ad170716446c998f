package netlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
)

// jsonNames lists the member names encoding/json uses for struct type t,
// in field order.
func jsonNames(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		out = append(out, name)
	}
	return out
}

// structTypes collects every struct type reachable from t through fields,
// pointers and slices.
func structTypes(t reflect.Type, seen map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		structTypes(t.Elem(), seen)
	case reflect.Struct:
		if seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			structTypes(t.Field(i).Type, seen)
		}
	}
}

// fillNonZero sets every exported field under v to a distinct non-zero
// value, each slice to one element and each pointer to a filled value,
// counting values with n. It fails on a kind the format has no encoding
// for.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0), n)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("the circuit format has a %s value the codec cannot carry", v.Type())
	}
}

// TestCodecFormatContract: the codec's member lists are the JSON names of
// the format's structs, in field order, for every struct type a Circuit
// reaches; and a circuit with every field non-zero is written by
// EncodeJSON exactly as json.Marshal writes it and read back whole by the
// strict decoder. The types and fields are enumerated by reflection, so a
// new field, omitempty or not, fails this test until the codec carries it,
// rather than dropping out of PlanKey or sending every body that sets it
// down the fallback path.
func TestCodecFormatContract(t *testing.T) {
	lists := map[reflect.Type][]string{
		reflect.TypeOf(Circuit{}):   circuitMembers,
		reflect.TypeOf(Net{}):       netMembers,
		reflect.TypeOf(Pin{}):       pinMembers,
		reflect.TypeOf(geom.Rect{}): rectMembers,
		reflect.TypeOf(geom.Pt{}):   xyMembers,
		reflect.TypeOf(geom.FPt{}):  xyMembers,
	}
	reached := map[reflect.Type]bool{}
	structTypes(reflect.TypeOf(Circuit{}), reached)
	for typ := range reached {
		members, ok := lists[typ]
		if !ok {
			t.Errorf("the codec has no member list for %s", typ)
			continue
		}
		if got := jsonNames(typ); !reflect.DeepEqual(got, members) {
			t.Errorf("%s has JSON members %q; the codec's list is %q", typ, got, members)
		}
	}
	if len(reached) != len(lists) {
		t.Errorf("a Circuit reaches %d struct types; the codec lists %d", len(reached), len(lists))
	}

	c := new(Circuit)
	var n int
	fillNonZero(t, reflect.ValueOf(c).Elem(), &n)
	want, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := EncodeJSON(&got, c); err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Errorf("EncodeJSON wrote %s (error %v), json.Marshal %s", got.Bytes(), err, want)
	}
	var d Decoder
	body := append(append([]byte(`{"circuit":`), want...), '}')
	back, ok := d.DecodeEnvelope(body, func(name, value []byte) (int, bool) { return 0, false })
	if !ok || !reflect.DeepEqual(back, c) {
		t.Errorf("the strict decoder read %s as another circuit (in the subset: %v)", body, ok)
	}
}
