package dkg

import (
	"errors"
	"fmt"

	"github.com/ibbesgx/ibbesgx/internal/curve"
)

// Record is the published state of one threshold sharing — it rides inside
// the fenced membership record, so the commitments every party verifies
// shares against are protected by the same CAS/epoch machinery as the
// member set itself. Everything here is public or sealed: commitments and
// the extraction base are public values, and the per-holder share blobs
// are sealed to the enclave measurement (only enclave code on the cluster
// platform can open them), so the record reveals nothing about γ.
type Record struct {
	// Generation counts sharings of this secret; a reshare bumps it. It
	// tracks the membership epoch that triggered the (re)share.
	Generation uint64 `json:"generation"`
	// Degree is the sharing polynomial degree d (quorum 2d+1, recovery d+1).
	Degree int `json:"degree"`
	// Commitments are the marshalled Feldman commitments C_j = h^{a_j};
	// C₀ = h^γ equals PK.HPowers[1], binding the sharing to the master
	// public key.
	Commitments [][]byte `json:"commitments"`
	// ExtractBase is the marshalled IBBE generator g the user keys are
	// powers of. Public in threshold mode (hardness rests on q-SDH, not on
	// g's secrecy); needed by every holder to publish P_i = g^{r_i}.
	ExtractBase []byte `json:"extract_base"`
	// MasterPK is the marshalled IBBE public key, so a restarted cluster
	// re-adopts the exact key instead of minting a fresh secret.
	MasterPK []byte `json:"master_pk"`
	// Holders maps shard ID → share index (1-based).
	Holders map[string]int `json:"holders"`
	// SealedShares maps shard ID → its persistent sealed share blob, so a
	// full-cluster restart recovers every share from the store.
	SealedShares map[string][]byte `json:"sealed_shares"`
}

// ParseCommitments unmarshals the commitment points into the given group.
func (r *Record) ParseCommitments(g *curve.Curve) ([]*curve.Point, error) {
	if len(r.Commitments) == 0 {
		return nil, errors.New("dkg: record has no commitments")
	}
	out := make([]*curve.Point, len(r.Commitments))
	for j, b := range r.Commitments {
		p, err := g.Unmarshal(b)
		if err != nil {
			return nil, fmt.Errorf("dkg: commitment %d: %w", j, err)
		}
		out[j] = p
	}
	return out, nil
}

// Index returns the share index of a holder (0 if the shard holds none).
func (r *Record) Index(shardID string) int { return r.Holders[shardID] }

// Clone deep-copies the record (maps and blobs included), so provisioner
// snapshots never alias a record a concurrent reshare mutates.
func (r *Record) Clone() *Record {
	if r == nil {
		return nil
	}
	out := &Record{
		Generation:   r.Generation,
		Degree:       r.Degree,
		Commitments:  make([][]byte, len(r.Commitments)),
		ExtractBase:  append([]byte(nil), r.ExtractBase...),
		MasterPK:     append([]byte(nil), r.MasterPK...),
		Holders:      make(map[string]int, len(r.Holders)),
		SealedShares: make(map[string][]byte, len(r.SealedShares)),
	}
	for j, b := range r.Commitments {
		out.Commitments[j] = append([]byte(nil), b...)
	}
	for id, i := range r.Holders {
		out.Holders[id] = i
	}
	for id, b := range r.SealedShares {
		out.SealedShares[id] = append([]byte(nil), b...)
	}
	return out
}
