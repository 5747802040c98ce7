package partition

import (
	"errors"
	"fmt"
	"math"

	"github.com/ibbesgx/ibbesgx/internal/wire"
)

// ErrBadDirectory reports a group header or directory bucket that does not
// decode, breaks a bound (capacity, canonical IDs, one binding per name) or
// does not belong where it was read from.
var ErrBadDirectory = errors.New("partition: bad group header or directory bucket")

// Kind tags of the two objects this package encodes (see internal/wire).
const (
	kindHeader = 'H'
	kindBucket = 'B'
)

// Marshal encodes the group header deterministically:
//
//	'H' capacity nextID fanout |P| { pageNum count yᵢ handle }…
//
// pages in ascending order, integers as uvarints, yᵢ and handle
// length-prefixed. Member names are not part of it.
func (ix *Index) Marshal() []byte {
	buf := make([]byte, 0, 16+len(ix.order)*136)
	buf = append(buf, kindHeader)
	buf = wire.AppendUvarint(buf, uint64(ix.capacity))
	buf = wire.AppendUvarint(buf, uint64(ix.nextID))
	buf = wire.AppendUvarint(buf, uint64(ix.fanout))
	buf = wire.AppendUvarint(buf, uint64(len(ix.order)))
	for _, pi := range ix.order {
		buf = wire.AppendUvarint(buf, uint64(pi.num))
		buf = wire.AppendUvarint(buf, uint64(pi.count))
		buf = wire.AppendBytes(buf, pi.wrapped)
		buf = wire.AppendBytes(buf, pi.handle)
	}
	return buf
}

// UnmarshalIndex rebuilds an index from a header (Marshal's output). It holds
// no bucket and has no fetch: install one with SetBucketFetch before asking
// it about members it was not told of. data is not retained.
func UnmarshalIndex(data []byte) (*Index, error) {
	r := wire.NewReader(append([]byte(nil), data...), kindHeader)
	capacity, nextID, fanout := r.Int(math.MaxInt32), r.Int(math.MaxInt32), r.Int(maxFanout)
	n := r.Count(4) // number, count and two length prefixes per partition
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadDirectory, err)
	}
	if fanout < 1 {
		return nil, fmt.Errorf("%w: header: fan-out %d", ErrBadDirectory, fanout)
	}
	ix, err := NewIndex(capacity, 0)
	if err != nil {
		return nil, err
	}
	ix.nextID, ix.fanout = nextID, fanout
	ix.ClearDirty()
	ix.pages, ix.order = make(map[string]*pageInfo, n), make([]*pageInfo, 0, n)
	prev := 0
	for i := 0; i < n; i++ {
		num, count, wrapped, handle := r.Int(nextID), r.Int(capacity), r.Bytes(), r.Bytes()
		if r.Err() != nil {
			break
		}
		if num <= prev || count < 1 {
			return nil, fmt.Errorf("%w: header: partition %d after %d with %d members", ErrBadDirectory, num, prev, count)
		}
		prev = num
		pi := ix.addPage(num, count)
		pi.wrapped, pi.handle = wrapped, handle
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadDirectory, err)
	}
	return ix, nil
}

// BucketEntry is one binding of a directory bucket.
type BucketEntry struct {
	Member string
	Page   string // partition ID
}

// marshalBucket encodes directory bucket i:
//
//	'B' fanout i n { name pageNum }…
//
// names in ascending order, the order the bucket keeps them in. An absent
// bucket encodes as an empty one.
func (ix *Index) marshalBucket(i int) []byte {
	var entries []binding
	if b := ix.buckets[i]; b != nil {
		entries = b.entries
	}
	size := 16
	for _, e := range entries {
		size += len(e.member) + 4
	}
	buf := make([]byte, 0, size)
	buf = append(buf, kindBucket)
	buf = wire.AppendUvarint(buf, uint64(ix.fanout))
	buf = wire.AppendUvarint(buf, uint64(i))
	buf = wire.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = wire.AppendString(buf, e.member)
		buf = wire.AppendUvarint(buf, uint64(e.page.num))
	}
	return buf
}

// UnmarshalBucket decodes the bucket object read as bucket index of a
// directory of the given fan-out. A bucket written under another fan-out or
// index, a name that does not hash to it and names out of strict ascending
// order (so also a name bound twice) are rejected.
func UnmarshalBucket(data []byte, fanout, index int) ([]BucketEntry, error) {
	r := wire.NewReader(data, kindBucket)
	gotFanout, gotIndex := r.Int(maxFanout), r.Int(maxFanout)
	n := r.Count(2) // length prefix and partition number per entry
	if r.Err() != nil || gotFanout != fanout || gotIndex != index {
		return nil, fmt.Errorf("%w: %s is not bucket %d of %d", ErrBadDirectory, BucketObject(index), index, fanout)
	}
	entries := make([]BucketEntry, 0, n)
	for i := 0; i < n; i++ {
		member, num := r.String(), r.Int(math.MaxInt32)
		if r.Err() != nil {
			break
		}
		if num < 1 || BucketOf(member, fanout) != index || (i > 0 && member <= entries[i-1].Member) {
			return nil, fmt.Errorf("%w: %s: entry %d (%q) is out of place", ErrBadDirectory, BucketObject(index), i, member)
		}
		entries = append(entries, BucketEntry{Member: member, Page: pageID(num)})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadDirectory, BucketObject(index), err)
	}
	return entries, nil
}
