// Package bin holds the positional binary layout helpers shared by the
// flow wire's frames (internal/flow) and the campaign kernels' spec and
// result payloads (internal/core): length-prefixed strings and byte
// slices, fixed 8-byte float64 bits and one-byte booleans beside
// encoding/binary's varints, and a Reader that latches its first error so
// a decoder reads every field and checks once.
//
// A layout is positional: fields are written in a fixed order, present or
// not, so the same value always encodes to the same bytes. The Reader
// accepts only those bytes: a varint with redundant continuation bytes, a
// boolean other than 0 or 1 and a length past the end of the input are
// errors, which makes decode-then-encode the identity on every input a
// decoder accepts.
package bin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendFloat64 appends the IEEE-754 bits of f as 8 little-endian bytes:
// every float, NaN payloads included, round-trips bit for bit.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader consumes a positional layout, latching the first error: after a
// failure every read returns the zero value, and the caller checks Err
// (or End) once at the end.
type Reader struct {
	b   []byte
	err error
	// what names the layout in errors ("flow: binary frame").
	what string
}

// NewReader returns a Reader over b; what names the layout in errors.
func NewReader(b []byte, what string) Reader { return Reader{b: b, what: what} }

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// End returns the first error, or an error if unread bytes remain: a
// layout is only valid when it is consumed exactly.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%s has %d trailing bytes", r.what, len(r.b))
	}
	return r.err
}

// Fail latches an error naming the field, unless one is latched already.
func (r *Reader) Fail(field string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: truncated or invalid %s", r.what, field)
	}
}

// uvarint reads the raw varint bytes of a field and rejects non-minimal
// encodings: a varint longer than one byte must not end in a zero byte.
func (r *Reader) uvarint(field string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.Fail(field)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(field string) uint64 { return r.uvarint(field) }

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint(field string) int64 {
	u := r.uvarint(field)
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a signed varint that must fit an int.
func (r *Reader) Int(field string) int {
	v := r.Varint(field)
	if int64(int(v)) != v {
		r.Fail(field)
		return 0
	}
	return int(v)
}

// Float64 reads a float written by AppendFloat64.
func (r *Reader) Float64(field string) float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.Fail(field)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return math.Float64frombits(v)
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool(field string) bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 || r.b[0] > 1 {
		r.Fail(field)
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v == 1
}

// Raw reads a length-prefixed byte slice without copying: the result is
// a view into the input.
func (r *Reader) Raw(field string) []byte {
	n := r.uvarint(field)
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.Fail(field)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// String reads a length-prefixed string (a copy).
func (r *Reader) String(field string) string { return string(r.Raw(field)) }

// Bytes reads a length-prefixed byte slice as a copy (nil when empty), so
// the caller may hold it after the input buffer is reused.
func (r *Reader) Bytes(field string) []byte {
	p := r.Raw(field)
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// Rest returns the unread bytes without copying and consumes them.
func (r *Reader) Rest() []byte {
	p := r.b
	r.b = nil
	return p
}

// Count reads a slice length, bounded by the unread bytes divided by the
// smallest encoding of one element, so a corrupt count is rejected before
// it sizes an allocation.
func (r *Reader) Count(field string, minElem int) int {
	n := r.uvarint(field)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b))/uint64(minElem) {
		r.Fail(field)
		return 0
	}
	return int(n)
}
