package bin

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestRoundTrip: every helper's output reads back to its input, and the
// reader ends exactly at the end.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendVarint(b, -1)
	b = AppendString(b, "DVU_00001")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendBytes(b, nil)
	b = AppendFloat64(b, math.Copysign(0, -1))
	b = AppendFloat64(b, math.Inf(1))
	b = AppendBool(b, true)
	r := NewReader(b, "test")
	if v := r.Uvarint("u"); v != math.MaxUint64 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Varint("v"); v != math.MinInt64 {
		t.Errorf("varint = %d", v)
	}
	if v := r.Int("i"); v != -1 {
		t.Errorf("int = %d", v)
	}
	if v := r.String("s"); v != "DVU_00001" {
		t.Errorf("string = %q", v)
	}
	if v := r.Bytes("b"); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Errorf("bytes = %v", v)
	}
	if v := r.Bytes("empty"); v != nil {
		t.Errorf("empty bytes = %v, want nil", v)
	}
	if v := r.Float64("f"); math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("float = %v", v)
	}
	if v := r.Float64("inf"); !math.IsInf(v, 1) {
		t.Errorf("float = %v", v)
	}
	if !r.Bool("bool") {
		t.Error("bool = false")
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejectsNonCanonical: the reader accepts only the bytes the
// helpers write, so a decoder built on it re-encodes every input it
// accepts to the same bytes.
func TestReaderRejectsNonCanonical(t *testing.T) {
	cases := map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"non-minimal varint":   {[]byte{0x81, 0x00}, func(r *Reader) { r.Uvarint("u") }},
		"overflowing varint":   {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint("u") }},
		"truncated varint":     {[]byte{0x80}, func(r *Reader) { r.Varint("v") }},
		"bool of 2":            {[]byte{2}, func(r *Reader) { r.Bool("b") }},
		"short float":          {[]byte{1, 2, 3}, func(r *Reader) { r.Float64("f") }},
		"string past the end":  {[]byte{5, 'a'}, func(r *Reader) { r.String("s") }},
		"count past the bytes": {[]byte{4, 0, 0}, func(r *Reader) { r.Count("c", 1) }},
		"trailing byte":        {[]byte{1, 0}, func(r *Reader) { r.Uvarint("u") }},
	}
	for name, c := range cases {
		r := NewReader(c.in, "test")
		c.read(&r)
		if r.End() == nil {
			t.Errorf("%s: %v accepted", name, c.in)
		}
	}
}
