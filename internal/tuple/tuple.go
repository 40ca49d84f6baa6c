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

// Value is a single typed datum. Exactly one of the fields is meaningful,
// selected by Kind. A struct (rather than an interface) keeps tuples flat
// and allocation-light in the executor's inner loops.
type Value struct {
	Kind Type
	I    int64
	F    float64
	S    string
}

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{Kind: Int, I: v} }

// NewFloat returns a Float value.
func NewFloat(v float64) Value { return Value{Kind: Float, F: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{Kind: String, S: v} }

// AsFloat converts numeric values to float64 for mixed-type comparison.
func (v Value) AsFloat() float64 {
	if v.Kind == Int {
		return float64(v.I)
	}
	return v.F
}

// Compare orders two values: -1, 0, +1. Two Ints compare as integers —
// exactly, so keys beyond 2^53 order the way a hash table keyed on them
// matches; any other numeric pair compares as floats; strings compare
// lexicographically. Comparing a string with a numeric value is a type
// error.
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
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1, nil
	case a > b:
		return 1, nil
	default:
		return 0, nil
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case Int:
		return fmt.Sprintf("%d", v.I)
	case Float:
		return fmt.Sprintf("%g", v.F)
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
	case Int:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case Float:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
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

// DecodeInto parses a tuple with the given arity from rec into dst's
// backing array (allocating only when dst is too small) and returns it.
// need selects the columns to materialise: need[i] false leaves column i
// as the zero Value, so a pruned string column costs no allocation. A nil
// need means every column. Skipped fields are still validated — every
// tag and length is checked exactly as for a materialised one.
//
// A String column whose bytes equal the String dst already holds for it
// keeps that value instead of making the same string again: a column
// that repeats down a table (lineitem's linestatus pad) then costs one
// allocation per run of equal values, not one per row. Strings are
// immutable and equal ones indistinguishable, so no caller can tell.
func DecodeInto(dst Tuple, rec []byte, arity int, need []bool) (Tuple, error) {
	if dst == nil || cap(dst) < arity {
		dst = make(Tuple, arity)
	}
	dst = dst[:arity]
	off := 0
	for i := range dst {
		if off >= len(rec) {
			return nil, fmt.Errorf("tuple: truncated record at field %d", i)
		}
		kind := Type(rec[off])
		off++
		keep := need == nil || need[i]
		if !keep {
			dst[i] = Value{}
		}
		switch kind {
		case Int:
			if off+8 > len(rec) {
				return nil, fmt.Errorf("tuple: truncated int at field %d", i)
			}
			if keep {
				dst[i] = NewInt(int64(binary.LittleEndian.Uint64(rec[off:])))
			}
			off += 8
		case Float:
			if off+8 > len(rec) {
				return nil, fmt.Errorf("tuple: truncated float at field %d", i)
			}
			if keep {
				dst[i] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(rec[off:])))
			}
			off += 8
		case String:
			if off+4 > len(rec) {
				return nil, fmt.Errorf("tuple: truncated string length at field %d", i)
			}
			l := int(binary.LittleEndian.Uint32(rec[off:]))
			off += 4
			if off+l > len(rec) {
				return nil, fmt.Errorf("tuple: truncated string at field %d", i)
			}
			// The comparison converts without allocating.
			if p := &dst[i]; keep && (p.Kind != String || p.S != string(rec[off:off+l])) {
				*p = NewString(string(rec[off : off+l]))
			}
			off += l
		default:
			return nil, fmt.Errorf("tuple: bad type tag %d at field %d", kind, i)
		}
	}
	return dst, nil
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
