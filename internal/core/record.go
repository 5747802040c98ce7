package core

import (
	"errors"
	"fmt"

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
func UnmarshalRecord(s *ibbe.Scheme, data []byte) (*PartitionRecord, error) {
	r := wire.NewReader(data, kindRecord)
	rec := &PartitionRecord{PartitionID: r.String()}
	n := r.Count(1)
	if r.Err() == nil {
		seen := make(map[string]bool, n)
		rec.Members = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m := r.String()
			if seen[m] {
				return nil, fmt.Errorf("%w: %s lists %q twice", ErrBadRecord, rec.PartitionID, m)
			}
			seen[m] = true
			rec.Members = append(rec.Members, m)
		}
	}
	ctRaw := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	ct, err := s.UnmarshalCiphertext(ctRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	rec.CT = ct
	return rec, nil
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
