// Package wire is the one length-prefixed binary codec behind every object
// of a group directory: partition records (internal/core), directory buckets
// and the group header (internal/partition). An encoding is a sequence of
// uvarints and uvarint-length-prefixed byte strings, opened by a one-byte
// kind tag so that no object decodes as another.
//
// Decoders read bytes from the honest-but-curious store, so a Reader checks
// every length against what is left of the buffer before using it and never
// allocates from a length it has not checked.
package wire

import (
	"encoding/binary"
	"errors"
	"strings"
)

// ErrMalformed reports an encoding that is truncated, overlong or carries a
// length pointing past its end.
var ErrMalformed = errors.New("wire: malformed encoding")

// AppendUvarint appends v.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendBytes appends b behind its length.
func AppendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// AppendString appends s behind its length.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Reader consumes an encoding front to back. The first malformed field
// latches the error and every later read returns zero values, so a decoder
// may read a run of fields and check Err (or, at the end, Done) once.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads data, which must open with the kind tag.
func NewReader(data []byte, kind byte) *Reader {
	if len(data) == 0 || data[0] != kind {
		return &Reader{err: ErrMalformed}
	}
	return &Reader{buf: data[1:]}
}

// Uvarint reads one uvarint in its shortest form (a padded one is malformed,
// so every value has one encoding).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, w := uvarint(r.buf)
	if w == 0 {
		r.err = ErrMalformed
		return 0
	}
	r.buf = r.buf[w:]
	return v
}

// uvarint decodes the uvarint at the front of buf and its width, or width 0
// when it is truncated, overlong or not in its shortest form.
func uvarint(buf []byte) (uint64, int) {
	v, w := binary.Uvarint(buf)
	if w <= 0 || (w > 1 && buf[w-1] == 0) {
		return 0, 0
	}
	return v, w
}

// Int reads a uvarint that must not exceed max.
func (r *Reader) Int(max int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(max) {
		r.err = ErrMalformed
		return 0
	}
	return int(v)
}

// Count reads the number of items that follow, each at least minSize (≥ 1)
// bytes long: a count that cannot fit in what is left of the buffer is
// malformed, so the result is safe to size an allocation with.
func (r *Reader) Count(minSize int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.buf)/minSize) {
		r.err = ErrMalformed
		return 0
	}
	return int(v)
}

// Bytes reads one length-prefixed byte string. The result aliases the input.
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	b, rest, ok := field(r.buf)
	if !ok {
		r.err = ErrMalformed
		return nil
	}
	r.buf = rest
	return b
}

// field splits the length-prefixed byte string at the front of buf off the
// rest: a shortest-form uvarint length, then that many bytes, all within buf.
func field(buf []byte) (b, rest []byte, ok bool) {
	v, w := uvarint(buf)
	if w == 0 || v > uint64(len(buf)-w) {
		return nil, nil, false
	}
	end := w + int(v)
	return buf[w:end:end], buf[end:], true
}

// String reads one length-prefixed string (a copy).
func (r *Reader) String() string { return string(r.Bytes()) }

// Strings reads n length-prefixed strings, sliced out of one backing string:
// a roster of n names costs two allocations, not n + 1. The first pass finds
// every field within the buffer and sizes the backing string, so nothing is
// allocated from an n the buffer cannot hold; the second copies the names in.
func (r *Reader) Strings(n int) []string {
	if r.err != nil {
		return nil
	}
	buf, total := r.buf, 0
	for i := 0; i < n; i++ {
		b, rest, ok := field(buf)
		if !ok {
			r.err = ErrMalformed
			return nil
		}
		total, buf = total+len(b), rest
	}
	var sb strings.Builder
	sb.Grow(total)
	out := make([]string, n)
	buf = r.buf
	for i := range out {
		b, rest, _ := field(buf)
		start := sb.Len()
		sb.Write(b)
		out[i], buf = sb.String()[start:], rest
	}
	r.buf = buf
	return out
}

// Err returns the first error met so far.
func (r *Reader) Err() error { return r.err }

// Done returns the first error met, or ErrMalformed when bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = ErrMalformed
	}
	return r.err
}
