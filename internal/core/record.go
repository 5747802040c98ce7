package core

import (
	"errors"
	"fmt"
	"hash/maphash"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/wire"
)

// ErrBadRecord reports a malformed serialised partition record.
var ErrBadRecord = errors.New("core: bad partition record")

// PartitionRecord is one partition as the manager sees it: the member list
// (public per the model — member identities are not hidden, §II), the IBBE
// broadcast ciphertext, and the partition's key envelope — the wrapped group
// key yᵢ and the enclave-sealed re-wrap handle.
//
// The cloud object of a partition (/g/p1, /g/p2, … of Fig. 5; Marshal and
// UnmarshalRecord) is the roster and the ciphertext only: it changes when the
// partition's membership does. The envelope changes with every revocation
// anywhere in the group, so it is stored in the group header instead
// (partition.Index); records the manager hands out carry it, a record decoded
// from the store does not, and its reader takes yᵢ from the header.
type PartitionRecord struct {
	PartitionID string
	Members     []string
	CT          *ibbe.Ciphertext
	WrappedGK   []byte
	WrapHandle  []byte
}

// CryptoSize returns the partition's cryptographic payload size: broadcast
// header plus wrapped group key plus sealed re-wrap handle — the footprint
// unit of Figs. 2b and 7.
func (r *PartitionRecord) CryptoSize(s *ibbe.Scheme) int {
	return s.HeaderLen() + len(r.WrappedGK) + len(r.WrapHandle)
}

// kindRecord opens a partition object (see internal/wire).
const kindRecord = 'R'

// Marshal serialises the partition object:
//
//	'R' id n { name }… C1‖C2‖C3
//
// every field length-prefixed, names in record order.
func (r *PartitionRecord) Marshal(s *ibbe.Scheme) ([]byte, error) {
	if r.CT == nil {
		return nil, fmt.Errorf("%w: missing ciphertext", ErrBadRecord)
	}
	size := 16 + len(r.PartitionID) + s.CiphertextLen()
	for _, m := range r.Members {
		size += len(m) + 2
	}
	buf := make([]byte, 0, size)
	buf = append(buf, kindRecord)
	buf = wire.AppendString(buf, r.PartitionID)
	buf = wire.AppendUvarint(buf, uint64(len(r.Members)))
	for _, m := range r.Members {
		buf = wire.AppendString(buf, m)
	}
	return wire.AppendBytes(buf, s.MarshalCiphertext(r.CT)), nil
}

// UnmarshalRecord parses a stored partition object, rejecting a roster that
// names a member twice. The decoder does not know the group's capacity: its
// callers hold the group header and check the roster's length against the
// partition's count there.
//
// A page rehydrates through here on every cache miss, so the roster costs two
// allocations whatever its length: the names are sliced out of one string
// (wire.Reader.Strings), and repeats are found by a probe table over their
// indices (firstRepeat), not a map of the names.
func UnmarshalRecord(s *ibbe.Scheme, data []byte) (*PartitionRecord, error) {
	r := wire.NewReader(data, kindRecord)
	rec := &PartitionRecord{PartitionID: r.String()}
	rec.Members = r.Strings(r.Count(1))
	ctRaw := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if i := firstRepeat(rec.Members); i >= 0 {
		return nil, fmt.Errorf("%w: %s lists %q twice", ErrBadRecord, rec.PartitionID, rec.Members[i])
	}
	ct, err := s.UnmarshalCiphertext(ctRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	rec.CT = ct
	return rec, nil
}

// rosterSeed keys firstRepeat's hash. It is drawn per process, so a store
// cannot pick names that all collide and turn the check quadratic.
var rosterSeed = maphash.MakeSeed()

// firstRepeat returns the index of the first name equal to an earlier one,
// or -1. Names go into an open-addressed table of indices, at most half full,
// under a seeded hash; a probe that meets an occupied slot compares the names
// in full, so a hash collision is never taken for a repeat.
func firstRepeat(names []string) int {
	size := 1
	for size < 2*len(names) {
		size <<= 1
	}
	var small [512]int32 // a capacity-256 roster stays on the stack
	var tab []int32
	if size <= len(small) {
		tab = small[:size]
	} else {
		tab = make([]int32, size)
	}
	mask := uint64(size - 1)
	for i, name := range names {
		for h := maphash.String(rosterSeed, name) & mask; ; h = (h + 1) & mask {
			j := tab[h]
			if j == 0 {
				tab[h] = int32(i + 1)
				break
			}
			if names[j-1] == name {
				return i
			}
		}
	}
	return -1
}

// ContainsMember reports whether id appears in the record's member list.
func (r *PartitionRecord) ContainsMember(id string) bool {
	for _, m := range r.Members {
		if m == id {
			return true
		}
	}
	return false
}
