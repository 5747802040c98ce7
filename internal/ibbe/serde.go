package ibbe

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBadCiphertext reports a malformed serialised ciphertext or key.
var ErrBadCiphertext = errors.New("ibbe: bad serialised value")

// HeaderLen returns the wire size of the broadcast header (C1, C2) — the
// quantity the paper reports as the constant 256-byte group expansion for
// 512-bit parameters.
func (s *Scheme) HeaderLen() int { return 2 * s.P.G1.PointLen() }

// CiphertextLen returns the wire size of a full ciphertext including the C3
// augmentation.
func (s *Scheme) CiphertextLen() int { return 3 * s.P.G1.PointLen() }

// MarshalCiphertext encodes (C1, C2, C3) as three fixed-width points.
func (s *Scheme) MarshalCiphertext(ct *Ciphertext) []byte {
	g1 := s.P.G1
	out := make([]byte, 0, s.CiphertextLen())
	out = append(out, g1.Marshal(ct.C1)...)
	out = append(out, g1.Marshal(ct.C2)...)
	out = append(out, g1.Marshal(ct.C3)...)
	return out
}

// UnmarshalCiphertext parses the output of MarshalCiphertext.
func (s *Scheme) UnmarshalCiphertext(b []byte) (*Ciphertext, error) {
	w := s.P.G1.PointLen()
	if len(b) != 3*w {
		return nil, fmt.Errorf("%w: ciphertext is %d bytes, want %d", ErrBadCiphertext, len(b), 3*w)
	}
	c1, err := s.P.G1.Unmarshal(b[:w])
	if err != nil {
		return nil, fmt.Errorf("ibbe: C1: %w", err)
	}
	c2, err := s.P.G1.Unmarshal(b[w : 2*w])
	if err != nil {
		return nil, fmt.Errorf("ibbe: C2: %w", err)
	}
	c3, err := s.P.G1.Unmarshal(b[2*w:])
	if err != nil {
		return nil, fmt.Errorf("ibbe: C3: %w", err)
	}
	return &Ciphertext{C1: c1, C2: c2, C3: c3}, nil
}

// PartitionStateLen returns the wire size of a partition's exponent state.
func (s *Scheme) PartitionStateLen() int { return 2 * s.P.Zr.ByteLen() }

// MarshalPartitionState encodes (k, Π) as two fixed-width Z_r elements. The
// bytes are as secret as γ: only the enclave seals and opens them.
func (s *Scheme) MarshalPartitionState(st *PartitionState) []byte {
	out := make([]byte, 0, s.PartitionStateLen())
	out = append(out, s.P.Zr.ToBytes(st.K)...)
	return append(out, s.P.Zr.ToBytes(st.Pi)...)
}

// UnmarshalPartitionState parses the output of MarshalPartitionState and
// checks both exponents lie in [1, r−1]: k is drawn non-zero and Π is a
// product of units, so a zero or an unreduced value can only be corruption.
func (s *Scheme) UnmarshalPartitionState(b []byte) (*PartitionState, error) {
	zr := s.P.Zr
	n := zr.ByteLen()
	if len(b) != 2*n {
		return nil, fmt.Errorf("%w: partition state is %d bytes, want %d", ErrBadCiphertext, len(b), 2*n)
	}
	k, err := zr.FromBytes(b[:n])
	if err != nil || k.Sign() == 0 {
		return nil, fmt.Errorf("%w: partition state k out of range", ErrBadCiphertext)
	}
	pi, err := zr.FromBytes(b[n:])
	if err != nil || pi.Sign() == 0 {
		return nil, fmt.Errorf("%w: partition state Π out of range", ErrBadCiphertext)
	}
	return &PartitionState{K: k, Pi: pi}, nil
}

// MarshalUserKey encodes a user secret key as one point.
func (s *Scheme) MarshalUserKey(uk *UserKey) []byte {
	return s.P.G1.Marshal(uk.D)
}

// UnmarshalUserKey parses the output of MarshalUserKey.
func (s *Scheme) UnmarshalUserKey(b []byte) (*UserKey, error) {
	d, err := s.P.G1.Unmarshal(b)
	if err != nil {
		return nil, fmt.Errorf("ibbe: user key: %w", err)
	}
	return &UserKey{D: d}, nil
}

// MarshalPublicKey encodes PK as: uint32 count ∥ W ∥ V ∥ HPowers…
func (s *Scheme) MarshalPublicKey(pk *PublicKey) []byte {
	g1 := s.P.G1
	out := make([]byte, 4, 4+g1.PointLen()*(1+len(pk.HPowers))+s.P.GTLen())
	binary.BigEndian.PutUint32(out, uint32(len(pk.HPowers)))
	out = append(out, g1.Marshal(pk.W)...)
	out = append(out, s.P.GTMarshal(pk.V)...)
	for _, hp := range pk.HPowers {
		out = append(out, g1.Marshal(hp)...)
	}
	return out
}

// UnmarshalPublicKey parses the output of MarshalPublicKey.
func (s *Scheme) UnmarshalPublicKey(b []byte) (*PublicKey, error) {
	g1 := s.P.G1
	w := g1.PointLen()
	gtLen := s.P.GTLen()
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: truncated public key", ErrBadCiphertext)
	}
	n := int(binary.BigEndian.Uint32(b))
	want := 4 + w + gtLen + n*w
	if n < 1 || len(b) != want {
		return nil, fmt.Errorf("%w: public key is %d bytes, want %d", ErrBadCiphertext, len(b), want)
	}
	off := 4
	wPt, err := g1.Unmarshal(b[off : off+w])
	if err != nil {
		return nil, fmt.Errorf("ibbe: W: %w", err)
	}
	off += w
	v, err := s.P.GTUnmarshal(b[off : off+gtLen])
	if err != nil {
		return nil, fmt.Errorf("ibbe: V: %w", err)
	}
	off += gtLen
	out := &PublicKey{W: wPt, V: v}
	for i := 0; i < n; i++ {
		p, err := g1.Unmarshal(b[off : off+w])
		if err != nil {
			return nil, fmt.Errorf("ibbe: HPowers[%d]: %w", i, err)
		}
		out.HPowers = append(out.HPowers, p)
		off += w
	}
	return out, nil
}
