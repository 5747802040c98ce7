package wire

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	buf := []byte{'K'}
	buf = AppendUvarint(buf, 300)
	buf = AppendString(buf, "name")
	buf = AppendBytes(buf, nil)
	r := NewReader(buf, 'K')
	if v, s, b := r.Uvarint(), r.String(), r.Bytes(); v != 300 || s != "name" || len(b) != 0 {
		t.Fatalf("read back %d %q %q", v, s, b)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// Strings reads what String would, one field at a time, and leaves the
// reader where String would.
func TestStrings(t *testing.T) {
	names := []string{"a", "", "bc", "a"}
	buf := []byte{'K'}
	for _, n := range names {
		buf = AppendString(buf, n)
	}
	buf = AppendUvarint(buf, 7)
	r := NewReader(buf, 'K')
	got := r.Strings(len(names))
	if len(got) != len(names) {
		t.Fatalf("read %d strings, want %d", len(got), len(names))
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("string %d is %q, want %q", i, got[i], names[i])
		}
	}
	if v := r.Uvarint(); v != 7 || r.Done() != nil {
		t.Fatalf("after the strings: %d, %v", v, r.Err())
	}
	if got := NewReader([]byte{'K'}, 'K').Strings(0); got == nil || len(got) != 0 {
		t.Fatalf("no strings read as %#v, want an empty slice", got)
	}
}

func TestReaderRejects(t *testing.T) {
	for name, read := range map[string]func() *Reader{
		"another kind": func() *Reader { return NewReader([]byte{'X', 1}, 'K') },
		"empty input":  func() *Reader { return NewReader(nil, 'K') },
		"truncated uvarint": func() *Reader {
			r := NewReader([]byte{'K', 0x80}, 'K')
			r.Uvarint()
			return r
		},
		"padded uvarint": func() *Reader {
			r := NewReader([]byte{'K', 0x80, 0x00}, 'K')
			r.Uvarint()
			return r
		},
		"value above its bound": func() *Reader {
			r := NewReader([]byte{'K', 9}, 'K')
			r.Int(8)
			return r
		},
		"length past the buffer": func() *Reader {
			r := NewReader([]byte{'K', 3, 'a', 'b'}, 'K')
			_ = r.Bytes()
			return r
		},
		"count past the buffer": func() *Reader {
			r := NewReader([]byte{'K', 3, 0, 0, 0, 0}, 'K')
			r.Count(2) // three items of two bytes do not fit in four
			return r
		},
		"string past the buffer": func() *Reader {
			r := NewReader([]byte{'K', 1, 'a', 3, 'b'}, 'K')
			if r.Strings(2) != nil {
				panic("Strings returned names from a truncated run")
			}
			return r
		},
		"trailing bytes": func() *Reader {
			r := NewReader([]byte{'K', 1, 2}, 'K')
			r.Uvarint()
			return r
		},
	} {
		if err := read().Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v", name, err)
		}
	}
	// After the first error every read is a zero value, not a panic.
	r := NewReader([]byte{'K', 0x80}, 'K')
	r.Uvarint()
	if r.Uvarint() != 0 || r.Bytes() != nil || r.String() != "" || r.Err() == nil {
		t.Fatal("reads after an error returned data")
	}
}
