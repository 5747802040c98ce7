package core

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
)

// ErrBadRecord reports a malformed serialised partition record.
var ErrBadRecord = errors.New("core: bad partition record")

// PartitionRecord is the cloud-stored object for one partition: the member
// list (public per the model — member identities are not hidden, §II), the
// IBBE broadcast ciphertext, the wrapped group key yᵢ and the enclave-sealed
// re-wrap handle (absent from records written before handles existed). One
// record is one object under the group directory (/g/p1, /g/p2, … of Fig. 5).
type PartitionRecord struct {
	PartitionID string
	Members     []string
	CT          *ibbe.Ciphertext
	WrappedGK   []byte
	WrapHandle  []byte
}

// CryptoSize returns the record's cryptographic payload size: broadcast
// header plus wrapped group key plus sealed re-wrap handle — the footprint
// unit of Figs. 2b and 7.
func (r *PartitionRecord) CryptoSize(s *ibbe.Scheme) int {
	return s.HeaderLen() + len(r.WrappedGK) + len(r.WrapHandle)
}

// recordWire is the JSON wire shape of a record.
type recordWire struct {
	PartitionID string   `json:"partition_id"`
	Members     []string `json:"members"`
	CT          string   `json:"ct"`
	WrappedGK   string   `json:"wrapped_gk"`
	WrapHandle  string   `json:"wk,omitempty"`
}

// Marshal serialises the record for storage.
func (r *PartitionRecord) Marshal(s *ibbe.Scheme) ([]byte, error) {
	if r.CT == nil {
		return nil, fmt.Errorf("%w: missing ciphertext", ErrBadRecord)
	}
	w := recordWire{
		PartitionID: r.PartitionID,
		Members:     r.Members,
		CT:          base64.StdEncoding.EncodeToString(s.MarshalCiphertext(r.CT)),
		WrappedGK:   base64.StdEncoding.EncodeToString(r.WrappedGK),
		WrapHandle:  base64.StdEncoding.EncodeToString(r.WrapHandle),
	}
	out, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("core: encoding record: %w", err)
	}
	return out, nil
}

// UnmarshalRecord parses a stored record.
func UnmarshalRecord(s *ibbe.Scheme, data []byte) (*PartitionRecord, error) {
	var w recordWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	ctRaw, err := base64.StdEncoding.DecodeString(w.CT)
	if err != nil {
		return nil, fmt.Errorf("%w: ciphertext encoding: %v", ErrBadRecord, err)
	}
	ct, err := s.UnmarshalCiphertext(ctRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	y, err := base64.StdEncoding.DecodeString(w.WrappedGK)
	if err != nil {
		return nil, fmt.Errorf("%w: wrapped key encoding: %v", ErrBadRecord, err)
	}
	handle, err := base64.StdEncoding.DecodeString(w.WrapHandle)
	if err != nil {
		return nil, fmt.Errorf("%w: wrap handle encoding: %v", ErrBadRecord, err)
	}
	return &PartitionRecord{
		PartitionID: w.PartitionID,
		Members:     w.Members,
		CT:          ct,
		WrappedGK:   y,
		WrapHandle:  handle,
	}, nil
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
