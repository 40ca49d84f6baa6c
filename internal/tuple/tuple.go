// Package tuple defines schemas, typed values, and the record encoding
// used throughout the engine. Average tuple width — the statistic the
// paper's progress indicator tracks at every segment boundary — is defined
// as the encoded size returned by EncodedSize.
package tuple

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Type is a column type.
type Type uint8

const (
	// Int is a 64-bit signed integer.
	Int Type = iota
	// Float is a 64-bit float.
	Float
	// String is a variable-length byte string.
	String
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "TEXT"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Project returns a schema with the given column indexes.
func (s *Schema) Project(idxs []int) *Schema {
	out := &Schema{Cols: make([]Column, len(idxs))}
	for i, ix := range idxs {
		out.Cols[i] = s.Cols[ix]
	}
	return out
}

// Concat returns the concatenation of two schemas (join output).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Cols: make([]Column, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// String renders the schema as "(a INT, b TEXT)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Value is a single typed datum, selected by Kind: an Int is I, a Float
// is the IEEE-754 bits held in I (read them with F), a String is S. A
// struct (rather than an interface) keeps tuples flat and
// allocation-light in the executor's inner loops, and sharing the one
// 64-bit word keeps it at 32 bytes — every decode, copy and clear of a
// row moves that many per column.
type Value struct {
	Kind Type
	I    int64
	S    string
}

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{Kind: Int, I: v} }

// NewFloat returns a Float value.
func NewFloat(v float64) Value { return Value{Kind: Float, I: int64(math.Float64bits(v))} }

// NewString returns a String value.
func NewString(v string) Value { return Value{Kind: String, S: v} }

// F returns a Float's value.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// AsFloat converts numeric values to float64 for mixed-type comparison.
func (v Value) AsFloat() float64 {
	if v.Kind == Int {
		return float64(v.I)
	}
	return v.F()
}

// Compare orders two values: -1, 0, +1. Two Ints compare as integers —
// exactly, so keys beyond 2^53 order the way a hash table keyed on them
// matches; any other numeric pair compares as floats, by cmp.Compare: a
// NaN equals every NaN and sorts below every number, and −0 equals +0,
// so the order is a strict weak one and equality is the one Canonical
// keys hash tables on; strings compare lexicographically. Comparing a
// string with a numeric value is a type error.
func (v Value) Compare(o Value) (int, error) {
	if v.Kind == Int && o.Kind == Int {
		return cmp.Compare(v.I, o.I), nil
	}
	if v.Kind == String || o.Kind == String {
		if v.Kind != String || o.Kind != String {
			return 0, fmt.Errorf("tuple: cannot compare %s with %s", v.Kind, o.Kind)
		}
		return strings.Compare(v.S, o.S), nil
	}
	return cmp.Compare(v.AsFloat(), o.AsFloat()), nil
}

// Canonical returns v with the Floats that Compare calls equal spelled
// the same way: −0 becomes +0 and every NaN one quiet NaN. Hash tables and
// key encodings go through it, so their equality is Compare's.
func (v Value) Canonical() Value {
	if v.Kind == Float {
		switch f := v.F(); {
		case f == 0:
			return NewFloat(0)
		case math.IsNaN(f):
			return NewFloat(math.NaN())
		}
	}
	return v
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case Int:
		return fmt.Sprintf("%d", v.I)
	case Float:
		return fmt.Sprintf("%g", v.F())
	default:
		return v.S
	}
}

// Tuple is a row: one Value per schema column.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation of two tuples (join output).
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// EncodedSize returns the number of bytes Encode will produce. This is the
// tuple "size" used for U accounting and for average-width statistics.
func (t Tuple) EncodedSize() int {
	n := 0
	for _, v := range t {
		n += 1 // kind tag
		switch v.Kind {
		case Int, Float:
			n += 8
		case String:
			n += 4 + len(v.S)
		}
	}
	return n
}

// Encode appends the value's binary encoding (kind tag, then payload) to
// dst and returns it.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case Int, Float: // a Float's word is its IEEE bits
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case String:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.S)))
		dst = append(dst, v.S...)
	}
	return dst
}

// Encode appends the tuple's binary encoding to dst and returns it.
func (t Tuple) Encode(dst []byte) []byte {
	for _, v := range t {
		dst = v.Encode(dst)
	}
	return dst
}

// Decode parses a tuple with the given arity from rec into a fresh tuple
// the caller may keep.
func Decode(rec []byte, arity int) (Tuple, error) {
	return DecodeInto(nil, rec, arity, nil)
}

// DecodeInto parses a record of arity fields into dst and returns the
// row. A nil pos means the whole row: dst's backing array is reused
// (allocated only when too small) and field i lands in column i. Otherwise
// pos is a layout with one entry per field: field i is written to
// dst[pos[i]], or nowhere when pos[i] is -1, and dst — which must be long
// enough for every slot pos names — is returned as it is. A slot pos does
// not name is never written, so a pruned string costs nothing and a
// column nobody reads costs no store. Skipped fields are still validated:
// every tag and length is checked exactly as for a written one.
//
// Each written field is stored by DecodeField, so an equal String is kept
// (see there).
func DecodeInto(dst Tuple, rec []byte, arity int, pos []int) (Tuple, error) {
	if pos == nil {
		if dst == nil || cap(dst) < arity {
			dst = make(Tuple, arity)
		}
		dst = dst[:arity]
	}
	off := 0
	for i := 0; i < arity; i++ {
		end := fieldEnd(rec, off)
		if end < 0 {
			return nil, fieldError(end, rec, off, i)
		}
		at := i
		if pos != nil {
			at = pos[i]
		}
		if at >= 0 {
			DecodeField(&dst[at], rec, off)
		}
		off = end
	}
	return dst, nil
}

// FieldOffsets appends the offset of each of rec's arity fields to offs,
// validating rec as DecodeInto does; on an error it returns offs as
// passed. A record fits in a page, so an offset fits in 16 bits.
func FieldOffsets(offs []uint16, rec []byte, arity int) ([]uint16, error) {
	n := len(offs)
	off := 0
	for i := 0; i < arity; i++ {
		end := fieldEnd(rec, off)
		if end < 0 {
			return offs[:n], fieldError(end, rec, off, i)
		}
		offs = append(offs, uint16(off))
		off = end
	}
	return offs, nil
}

// fieldEnd returns the end of the field at rec[off], or a bad* code: the
// one check of tags and lengths, for DecodeInto and FieldOffsets, which
// DecodeField trusts. It returns an int, not an error, so that it inlines.
func fieldEnd(rec []byte, off int) int {
	if uint(off) >= uint(len(rec)) {
		return badRecord
	}
	switch Type(rec[off]) {
	case Int, Float:
		if off+9 <= len(rec) {
			return off + 9
		}
		return badInt - int(rec[off]) // badInt or badFloat
	case String:
		if off+5 > len(rec) {
			return badStringLen
		}
		if end := off + 5 + int(binary.LittleEndian.Uint32(rec[off+1:off+5])); end <= len(rec) {
			return end
		}
		return badString
	}
	return badTag
}

// fieldEnd's codes, each -1 - its index in malformed.
const badRecord, badInt, badFloat, badStringLen, badString, badTag = -1, -2, -3, -4, -5, -6

var malformed = [...]string{"truncated record", "truncated int", "truncated float", "truncated string length", "truncated string"}

// fieldError is the error for field i at rec[off], which failed fieldEnd.
func fieldError(code int, rec []byte, off, i int) error {
	if code == badTag {
		return fmt.Errorf("tuple: bad type tag %d at field %d", rec[off], i)
	}
	return fmt.Errorf("tuple: %s at field %d", malformed[-1-code], i)
}

// DecodeField stores in *p the field that starts at rec[off], which
// FieldOffsets (or DecodeInto) has validated. A String whose bytes equal
// the String *p already holds keeps that value instead of making the same
// string again: a column that repeats down a table (lineitem's linestatus
// pad) then costs one allocation per run of equal values, not one per
// row. Strings are immutable and equal ones indistinguishable, so no
// caller can tell.
func DecodeField(p *Value, rec []byte, off int) {
	kind := Type(rec[off])
	if kind != String { // an Int's or a Float's word is its payload
		*p = Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(rec[off+1 : off+9]))}
		return
	}
	s := rec[off+5 : off+5+int(binary.LittleEndian.Uint32(rec[off+1:off+5]))]
	// The comparison converts without allocating.
	if p.Kind != String || p.S != string(s) {
		*p = NewString(string(s))
	}
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
