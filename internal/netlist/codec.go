package netlist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"repro/internal/geom"
)

// This file owns the circuit's JSON format in both directions on the
// service's hot path: a strict decoder for the canonical subset of the
// format, and a canonical encoder that writes exactly the bytes
// json.Marshal writes. ReadJSON and WriteJSON, for files, keep
// encoding/json.

// Decoder decodes request bodies that carry a circuit, in the canonical
// subset of JSON: the body holds no backslash and no byte past ASCII, so
// no string has an escape; every member name matches a field's exactly
// and appears at most once; numbers follow the JSON grammar, and an int is
// at most 18 digits with no fraction, exponent or minus zero; null stands
// only where json.Marshal writes it for a circuit, as the circuit itself
// or one of its lists (nets, buffer sites, blocks, a net's sinks), not as
// a net; nothing but whitespace follows the body. This covers what
// json.Marshal writes for a circuit whose names are ASCII without <>& and
// whose nets are not nil. Inside the subset the decoded circuit is the one
// encoding/json decodes, nil and empty slices told apart. At the first
// byte outside it the decoder stops and reports that it did not decode, so
// the caller can run encoding/json on the whole body instead; a backslash
// or a byte past ASCII is looked for before any decoding, since such a
// body leaves the subset wherever it holds one.
//
// The circuit is built into a few slabs (one []Net, one []Pin cut into
// capped per-net sink slices, one string holding every name) from scratch
// the Decoder keeps, so once the scratch has grown a decode allocates the
// same handful of objects at any net count. The zero value is ready to
// use; a Decoder is not safe for concurrent use.
type Decoder struct {
	b   []byte // the input, during a decode
	i   int    // the read position in b
	bad bool   // a byte outside the subset was met

	names  []byte // the circuit's name, then each net's
	nets   []scratchNet
	pins   []Pin // every net's sinks, net by net
	sites  []int
	blocks []geom.Rect
}

// scratchNet is a decoded net before the slabs exist: its name and sinks
// are spans of the Decoder's name and pin scratch.
type scratchNet struct {
	net             Net // Name and Sinks unset
	name, nameEnd   int
	sinks, sinksEnd int
	hasSinks        bool
}

// scratchCircuit is a decoded circuit before the slabs exist: its header,
// its name's span in the name scratch, the members read (bit i for
// circuitMembers[i]), and which lists were given and not null.
type scratchCircuit struct {
	c                   Circuit // Name and the slices unset
	name, nameEnd       int
	seen                uint
	nets, sites, blocks bool
}

// DecodeEnvelope decodes body, a JSON object in the canonical subset whose
// member named "circuit", if present, is a circuit or null. Each other
// member is handed to member with its name and the input from its value
// on; member decodes the value and returns its length in bytes, or false
// to stop. It returns the circuit (nil when the body has none) and whether
// the whole body lay in the subset.
func (d *Decoder) DecodeEnvelope(body []byte, member func(name, value []byte) (int, bool)) (*Circuit, bool) {
	if bytes.IndexByte(body, '\\') >= 0 || !ascii(body) {
		return nil, false
	}
	d.b, d.i, d.bad = body, 0, false
	d.names, d.nets, d.pins, d.sites, d.blocks = d.names[:0], d.nets[:0], d.pins[:0], d.sites[:0], d.blocks[:0]
	var sc scratchCircuit
	circuit := false
	for n := 0; ; n++ {
		k, ok := d.next(n)
		if !ok {
			break
		}
		if string(k) == "circuit" {
			d.bad = d.bad || circuit
			if !d.null() {
				circuit = true
				d.circuit(&sc)
			}
			continue
		}
		d.ws()
		m, ok := member(k, d.b[d.i:])
		if !ok || m < 0 || m > len(d.b)-d.i {
			d.bad = true
			break
		}
		d.i += m
	}
	d.ws()
	ok := !d.bad && d.i == len(d.b)
	d.b = nil // the body is the caller's: keep none of it
	if !ok || !circuit {
		return nil, ok
	}
	return d.build(&sc), true
}

// ascii reports whether b holds only ASCII bytes, testing 32 at a time.
func ascii(b []byte) bool {
	const high = 0x8080808080808080
	le := binary.LittleEndian
	for ; len(b) >= 32; b = b[32:] {
		if (le.Uint64(b)|le.Uint64(b[8:])|le.Uint64(b[16:])|le.Uint64(b[24:]))&high != 0 {
			return false
		}
	}
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// ws skips whitespace.
func (d *Decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// expect consumes the byte c after whitespace, or marks the input bad.
func (d *Decoder) expect(c byte) {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return
	}
	d.bad = true
}

// null consumes a null after whitespace if it is next.
func (d *Decoder) null() bool {
	d.ws()
	if len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// closes consumes the byte c after whitespace if it is next.
func (d *Decoder) closes(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// next reads the name of the next member of an object of which n members
// have been read, through its colon (the opening brace when n is 0). It
// returns false at the object's closing brace and on bad input.
func (d *Decoder) next(n int) ([]byte, bool) {
	if d.bad {
		return nil, false
	}
	if n == 0 {
		d.expect('{')
	}
	if d.bad || d.closes('}') {
		return nil, false
	}
	if n > 0 {
		d.expect(',')
	}
	k := d.str()
	d.expect(':')
	return k, !d.bad
}

// elem advances to the next element of an array of which n elements have
// been read (past the opening bracket when n is 0). It returns false at the
// array's closing bracket and on bad input.
func (d *Decoder) elem(n int) bool {
	if d.bad {
		return false
	}
	if n == 0 {
		d.expect('[')
	}
	if d.bad || d.closes(']') {
		return false
	}
	if n > 0 {
		d.expect(',')
	}
	return !d.bad
}

// str reads a string without control characters and returns its
// contents, a slice of the input. DecodeEnvelope has refused a body with a
// backslash or a byte past ASCII, so the string has no escape.
func (d *Decoder) str() []byte {
	d.expect('"')
	if d.bad {
		return nil
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s
		case c < 0x20:
			d.bad = true
			return nil
		}
	}
	d.bad = true
	return nil
}

// name reads a string into the name scratch and returns its span there.
func (d *Decoder) name() (int, int) {
	s := d.str()
	start := len(d.names)
	d.names = append(d.names, s...)
	return start, len(d.names)
}

// int reads an integer of at most 18 digits, without fraction, exponent
// or minus zero, so that it cannot overflow.
func (d *Decoder) int() int {
	d.ws()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for i < len(b) && b[i]-'0' < 10 {
		v = v*10 + int(b[i]-'0')
		i++
	}
	if digits := i - start; digits == 0 || digits > 18 || b[start] == '0' && (digits > 1 || neg) ||
		i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		d.bad = true
		return 0
	}
	d.i = i
	if neg {
		return -v
	}
	return v
}

// digits consumes a run of decimal digits and returns how many it read.
func (d *Decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' < 10 {
		d.i++
	}
	return d.i - start
}

// float reads a number in the JSON grammar, converted as encoding/json
// converts it. An out-of-range number is outside the subset (encoding/json
// refuses it too).
func (d *Decoder) float() float64 {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch n := d.digits(); {
	case n == 0, n > 1 && d.b[d.i-n] == '0':
		d.bad = true
		return 0
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if d.digits() == 0 {
			d.bad = true
			return 0
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if d.digits() == 0 {
			d.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.bad = true
		return 0
	}
	return f
}

// The member names of each object of the format, in field order.
var (
	circuitMembers = []string{"name", "grid_w", "grid_h", "tile_um", "nets", "buffer_sites", "blocks", "num_pads"}
	netMembers     = []string{"id", "name", "source", "sinks", "l"}
	pinMembers     = []string{"tile", "pos"}
	rectMembers    = []string{"Lo", "Hi"}
	xyMembers      = []string{"X", "Y"}
)

// member reads the name of the next member of an object (see next) and
// returns its index in names, marking it in seen. It returns -1 at the
// object's end, and marks the input bad and returns -1 at a name not in
// names or seen before.
func (d *Decoder) member(n int, names []string, seen *uint) int {
	k, ok := d.next(n)
	if !ok {
		return -1
	}
	for i, name := range names {
		if string(k) == name && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return i
		}
	}
	d.bad = true
	return -1
}

// pt reads a tile coordinate.
func (d *Decoder) pt(p *geom.Pt) {
	var seen uint
	for n := 0; ; n++ {
		switch d.member(n, xyMembers, &seen) {
		case 0:
			p.X = d.int()
		case 1:
			p.Y = d.int()
		default:
			return
		}
	}
}

// fpt reads a chip coordinate.
func (d *Decoder) fpt(p *geom.FPt) {
	var seen uint
	for n := 0; ; n++ {
		switch d.member(n, xyMembers, &seen) {
		case 0:
			p.X = d.float()
		case 1:
			p.Y = d.float()
		default:
			return
		}
	}
}

// pin reads a net terminal.
func (d *Decoder) pin(p *Pin) {
	var seen uint
	for n := 0; ; n++ {
		switch d.member(n, pinMembers, &seen) {
		case 0:
			d.pt(&p.Tile)
		case 1:
			d.fpt(&p.Pos)
		default:
			return
		}
	}
}

// rect reads a block outline.
func (d *Decoder) rect(r *geom.Rect) {
	var seen uint
	for n := 0; ; n++ {
		switch d.member(n, rectMembers, &seen) {
		case 0:
			d.fpt(&r.Lo)
		case 1:
			d.fpt(&r.Hi)
		default:
			return
		}
	}
}

// net reads a net into the net scratch, its sinks into the pin scratch.
func (d *Decoder) net() {
	var sn scratchNet
	var seen uint
	for n := 0; ; n++ {
		switch d.member(n, netMembers, &seen) {
		case 0:
			sn.net.ID = d.int()
		case 1:
			sn.name, sn.nameEnd = d.name()
		case 2:
			d.pin(&sn.net.Source)
		case 3:
			sn.hasSinks, sn.sinks = !d.null(), len(d.pins)
			for m := 0; sn.hasSinks && d.elem(m); m++ {
				d.pins = append(d.pins, Pin{})
				d.pin(&d.pins[len(d.pins)-1])
			}
			sn.sinksEnd = len(d.pins)
		case 4:
			sn.net.L = d.int()
		default:
			d.nets = append(d.nets, sn)
			return
		}
	}
}

// circuit reads a circuit's members into sc and the scratch.
func (d *Decoder) circuit(sc *scratchCircuit) {
	for n := 0; ; n++ {
		switch d.member(n, circuitMembers, &sc.seen) {
		case 0:
			sc.name, sc.nameEnd = d.name()
		case 1:
			sc.c.GridW = d.int()
		case 2:
			sc.c.GridH = d.int()
		case 3:
			sc.c.TileUm = d.float()
		case 4:
			sc.nets = !d.null()
			for m := 0; sc.nets && d.elem(m); m++ {
				d.net()
			}
		case 5:
			sc.sites = !d.null()
			for m := 0; sc.sites && d.elem(m); m++ {
				d.sites = append(d.sites, d.int())
			}
		case 6:
			sc.blocks = !d.null()
			for m := 0; sc.blocks && d.elem(m); m++ {
				d.blocks = append(d.blocks, geom.Rect{})
				d.rect(&d.blocks[len(d.blocks)-1])
			}
		case 7:
			sc.c.NumPads = d.int()
		default:
			return
		}
	}
}

// build copies the decoded circuit out of the scratch into its slabs. A
// list the input spelled [] is an empty slice, not nil, and one it left
// out or spelled null is nil, as encoding/json decodes them: make of
// length 0 returns an empty slice without allocating.
func (d *Decoder) build(sc *scratchCircuit) *Circuit {
	names := string(d.names) //rabid:allow allocfree slab: the one string every name of the circuit is cut from
	c := new(Circuit)        //rabid:allow allocfree slab: the decoded circuit itself
	*c = sc.c
	c.Name = names[sc.name:sc.nameEnd]
	if sc.nets {
		nets := make([]Net, len(d.nets))  //rabid:allow allocfree slab: every net of the circuit
		ptrs := make([]*Net, len(d.nets)) //rabid:allow allocfree slab: the circuit's net list
		pins := make([]Pin, len(d.pins))  //rabid:allow allocfree slab: every sink of the circuit, cut per net below
		copy(pins, d.pins)
		for i := range d.nets {
			sn, n := &d.nets[i], &nets[i]
			*n = sn.net
			n.Name = names[sn.name:sn.nameEnd]
			if sn.hasSinks {
				n.Sinks = pins[sn.sinks:sn.sinksEnd:sn.sinksEnd]
			}
			ptrs[i] = n
		}
		c.Nets = ptrs
	}
	if sc.sites {
		c.BufferSites = make([]int, len(d.sites)) //rabid:allow allocfree slab: the per-tile buffer-site counts
		copy(c.BufferSites, d.sites)
	}
	if sc.blocks {
		c.Blocks = make([]geom.Rect, len(d.blocks)) //rabid:allow allocfree slab: the block outlines
		copy(c.Blocks, d.blocks)
	}
	return c
}

// flushAt is the staged size past which EncodeJSON hands its buffer to the
// writer, checked between the elements of an array.
const flushAt = 1 << 10

// EncodeJSON writes the JSON encoding of c to w: exactly the bytes
// json.Marshal(c) returns, with its HTML-safe string escapes, its float
// formatting and null for a nil slice or net. It stages about one array
// element at a time, so a circuit of any size streams (into a hash, say)
// through a small buffer. Like json.Marshal it fails, with the same error, on a NaN or
// infinite tile size or coordinate; w may then have received part of the
// encoding.
func EncodeJSON(w io.Writer, c *Circuit) error {
	e := encoder{w: w, b: make([]byte, 0, 2*flushAt)}
	e.circuit(c)
	e.flush()
	if e.failed {
		return &json.UnsupportedValueError{Value: reflect.ValueOf(e.nonFinite), Str: strconv.FormatFloat(e.nonFinite, 'g', -1, 64)}
	}
	return e.err
}

// encoder stages the encoding of one circuit.
type encoder struct {
	w         io.Writer
	b         []byte
	err       error   // the writer's first error
	failed    bool    // a non-finite float was met
	nonFinite float64 // the first one
}

// flush hands the staged bytes to the writer.
func (e *encoder) flush() {
	if e.err == nil && !e.failed {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

// str appends s as json.Marshal quotes it.
func (e *encoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// int appends v.
func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float appends f as json.Marshal formats a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21, with the
// exponent unpadded. A non-finite f fails the encoding.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if !e.failed {
			e.failed, e.nonFinite = true, f
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.b = b
}

// pt appends a tile coordinate.
func (e *encoder) pt(p geom.Pt) {
	e.b = append(e.b, `{"X":`...)
	e.int(p.X)
	e.b = append(e.b, `,"Y":`...)
	e.int(p.Y)
	e.b = append(e.b, '}')
}

// fpt appends a chip coordinate.
func (e *encoder) fpt(p geom.FPt) {
	e.b = append(e.b, `{"X":`...)
	e.float(p.X)
	e.b = append(e.b, `,"Y":`...)
	e.float(p.Y)
	e.b = append(e.b, '}')
}

// pin appends a net terminal.
func (e *encoder) pin(p *Pin) {
	e.b = append(e.b, `{"tile":`...)
	e.pt(p.Tile)
	e.b = append(e.b, `,"pos":`...)
	e.fpt(p.Pos)
	e.b = append(e.b, '}')
}

// open appends null for a nil slice and reports false, or opens the
// slice's array and reports true.
func (e *encoder) open(isNil bool) bool {
	if isNil {
		e.b = append(e.b, "null"...)
		return false
	}
	e.b = append(e.b, '[')
	return true
}

// sep separates element i of an array from the one before it, first
// handing the staged bytes to the writer once they pass flushAt.
func (e *encoder) sep(i int) {
	if i == 0 {
		return
	}
	if len(e.b) >= flushAt {
		e.flush()
	}
	e.b = append(e.b, ',')
}

// net appends a net.
func (e *encoder) net(n *Net) {
	if n == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, `{"id":`...)
	e.int(n.ID)
	e.b = append(e.b, `,"name":`...)
	e.str(n.Name)
	e.b = append(e.b, `,"source":`...)
	e.pin(&n.Source)
	e.b = append(e.b, `,"sinks":`...)
	if e.open(n.Sinks == nil) {
		for i := range n.Sinks {
			e.sep(i)
			e.pin(&n.Sinks[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"l":`...)
	e.int(n.L)
	e.b = append(e.b, '}')
}

// circuit appends a circuit.
func (e *encoder) circuit(c *Circuit) {
	if c == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, `{"name":`...)
	e.str(c.Name)
	e.b = append(e.b, `,"grid_w":`...)
	e.int(c.GridW)
	e.b = append(e.b, `,"grid_h":`...)
	e.int(c.GridH)
	e.b = append(e.b, `,"tile_um":`...)
	e.float(c.TileUm)
	e.b = append(e.b, `,"nets":`...)
	if e.open(c.Nets == nil) {
		for i, n := range c.Nets {
			e.sep(i)
			e.net(n)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"buffer_sites":`...)
	if e.open(c.BufferSites == nil) {
		for i, v := range c.BufferSites {
			e.sep(i)
			e.int(v)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"blocks":`...)
	if e.open(c.Blocks == nil) {
		for i, r := range c.Blocks {
			e.sep(i)
			e.b = append(e.b, `{"Lo":`...)
			e.fpt(r.Lo)
			e.b = append(e.b, `,"Hi":`...)
			e.fpt(r.Hi)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"num_pads":`...)
	e.int(c.NumPads)
	e.b = append(e.b, '}')
}
