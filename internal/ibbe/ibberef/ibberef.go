// Package ibberef is the textbook transcription of the IBBE scheme that
// package ibbe runs optimised: Delerablée's identity-based broadcast
// encryption (ASIACRYPT 2007) with the IBBE-SGX membership operations of
// Contiu et al. (DSN 2018, Appendix A, §E–G), over ibbe's key, header and
// broadcast-key types.
//
// Every operation takes the reference arithmetic: big.Int Z_r, the
// double-and-add G1 ladder (curve.ScalarMultBinary), the square-and-multiply
// GT ladder (pairing.GTExpBinary), the affine Miller loop
// (pairing.PairReference) and an uncached big.Int identity hash. No table is
// built and nothing is memoised. Fed the same random stream, a Scheme draws
// in the same order as an ibbe.Scheme and returns the same bytes, which is
// what the differential tests in package ibbe assert; the benchmarks use it
// as the unaccelerated baseline. It is reference code, not product code:
// only tests and internal/benchmark import it.
package ibberef

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// Scheme binds the reference algorithms to a pairing parameter set. It
// holds no state, so a Scheme may be copied and shared freely.
type Scheme struct {
	P *pairing.Params
}

// New returns the reference scheme over the given pairing parameters.
func New(p *pairing.Params) *Scheme { return &Scheme{P: p} }

// exp is g^k on the binary ladder, with k reduced modulo r.
func (s *Scheme) exp(g *curve.Point, k *big.Int) *curve.Point {
	return s.P.G1.ScalarMultBinary(g, new(big.Int).Mod(k, s.P.R))
}

// HashID maps an identity into Z_r* exactly as ibbe.Scheme.HashID: the
// SHA-256 blocks SHA-256(block ‖ id) are concatenated until bytes(r) + 16
// bytes are available, reduced modulo r − 1, and 1 is added.
func (s *Scheme) HashID(id string) *big.Int {
	r := s.P.R
	need := (r.BitLen()+7)/8 + 16
	out := make([]byte, 0, need+sha256.Size)
	for block := uint32(0); len(out) < need; block++ {
		h := sha256.New()
		var pre [4]byte
		binary.BigEndian.PutUint32(pre[:], block)
		h.Write(pre[:])
		h.Write([]byte(id))
		out = h.Sum(out)
	}
	v := new(big.Int).SetBytes(out[:need])
	v.Mod(v, new(big.Int).Sub(r, big.NewInt(1)))
	return v.Add(v, big.NewInt(1)) // uniform in [1, r−1]
}

// prodGammaPlusHash returns Π_{u∈ids} (γ + H(u)) mod r.
func (s *Scheme) prodGammaPlusHash(gamma *big.Int, ids []string) *big.Int {
	zr := s.P.Zr
	prod := big.NewInt(1)
	for _, id := range ids {
		prod = zr.Mul(prod, zr.Add(gamma, s.HashID(id)))
	}
	return prod
}

// expandProductPoly returns the coefficients a_0..a_n of Π_{u∈ids}(x + H(u)),
// a_n = 1, by the quadratic coefficient-by-coefficient recurrence.
func (s *Scheme) expandProductPoly(ids []string) []*big.Int {
	zr := s.P.Zr
	coeffs := []*big.Int{big.NewInt(1)}
	for _, id := range ids {
		h := s.HashID(id)
		next := make([]*big.Int, len(coeffs)+1)
		for i := range next {
			next[i] = big.NewInt(0)
		}
		for i, c := range coeffs {
			// (Σ c_i x^i)(x + h) contributes c_i to x^{i+1} and c_i·h to x^i.
			next[i+1] = zr.Add(next[i+1], c)
			next[i] = zr.Add(next[i], zr.Mul(c, h))
		}
		coeffs = next
	}
	return coeffs
}

// multiExpHPowers returns Σ_i coeffs[i] · HPowers[i], one ladder per
// non-zero coefficient.
func (s *Scheme) multiExpHPowers(pk *ibbe.PublicKey, coeffs []*big.Int) *curve.Point {
	acc := s.P.G1.Infinity()
	for i, c := range coeffs {
		if c.Sign() != 0 {
			acc = s.P.G1.Add(acc, s.exp(pk.HPowers[i], c))
		}
	}
	return acc
}

// Setup draws MSK = (g, γ) — g, then h, then γ — and computes
// PK = (w = g^γ, v = e(g, h), h, h^γ, …, h^γ^m).
func (s *Scheme) Setup(m int, rng io.Reader) (*ibbe.MasterSecretKey, *ibbe.PublicKey, error) {
	if m < 1 {
		return nil, nil, errors.New("ibberef: maximal group size must be at least 1")
	}
	g1 := s.P.G1
	g, err := g1.RandPoint(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: drawing g: %w", err)
	}
	h, err := g1.RandPoint(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: drawing h: %w", err)
	}
	gamma, err := g1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: drawing γ: %w", err)
	}
	pk := &ibbe.PublicKey{W: s.exp(g, gamma), V: s.P.PairReference(g, h), HPowers: make([]*curve.Point, m+1)}
	acc := big.NewInt(1)
	for i := range pk.HPowers {
		pk.HPowers[i] = s.exp(h, acc)
		acc = s.P.Zr.Mul(acc, gamma)
	}
	return &ibbe.MasterSecretKey{G: g, Gamma: gamma}, pk, nil
}

// Extract derives USK = g^(1/(γ+H(u))).
func (s *Scheme) Extract(msk *ibbe.MasterSecretKey, id string) (*ibbe.UserKey, error) {
	if msk == nil || msk.G == nil || msk.Gamma == nil {
		return nil, ibbe.ErrBadKey
	}
	inv, err := s.P.Zr.Inv(s.P.Zr.Add(msk.Gamma, s.HashID(id)))
	if err != nil {
		return nil, fmt.Errorf("ibberef: identity collides with master secret: %w", err)
	}
	return &ibbe.UserKey{D: s.exp(msk.G, inv)}, nil
}

// checkSize refuses an empty receiver set or one beyond the key's m.
func checkSize(pk *ibbe.PublicKey, ids []string) error {
	if len(ids) == 0 {
		return ibbe.ErrEmptyGroup
	}
	if len(ids) > pk.MaxGroupSize() {
		return fmt.Errorf("%w: %d > %d", ibbe.ErrGroupTooLarge, len(ids), pk.MaxGroupSize())
	}
	return nil
}

// header assembles C1 = w^−k, C2 = C3^k and bk = v^k around C3.
func (s *Scheme) header(pk *ibbe.PublicKey, c3 *curve.Point, k *big.Int) (*ibbe.BroadcastKey, *ibbe.Ciphertext) {
	ct := &ibbe.Ciphertext{C1: s.exp(pk.W, s.P.Zr.Neg(k)), C2: s.exp(c3, k), C3: c3}
	return s.P.GTExpBinary(pk.V, k), ct
}

// EncryptMSK draws k and builds the header with the master secret (paper
// eq. 3): C3 = h^Π(γ+H(u)), C2 = h^{k·Π}, C1 = w^−k, bk = v^k.
func (s *Scheme) EncryptMSK(msk *ibbe.MasterSecretKey, pk *ibbe.PublicKey, ids []string, rng io.Reader) (*ibbe.BroadcastKey, *ibbe.Ciphertext, error) {
	if err := checkSize(pk, ids); err != nil {
		return nil, nil, err
	}
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: drawing k: %w", err)
	}
	pi := s.prodGammaPlusHash(msk.Gamma, ids)
	h := pk.HPowers[0]
	ct := &ibbe.Ciphertext{C1: s.exp(pk.W, s.P.Zr.Neg(k)), C2: s.exp(h, s.P.Zr.Mul(k, pi)), C3: s.exp(h, pi)}
	return s.P.GTExpBinary(pk.V, k), ct, nil
}

// EncryptClassic draws k and builds the header from PK alone (paper eq. 4):
// C3 = Σ a_i·h^γ^i over the expanded Π(x + H(u)).
func (s *Scheme) EncryptClassic(pk *ibbe.PublicKey, ids []string, rng io.Reader) (*ibbe.BroadcastKey, *ibbe.Ciphertext, error) {
	if err := checkSize(pk, ids); err != nil {
		return nil, nil, err
	}
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: drawing k: %w", err)
	}
	bk, ct := s.header(pk, s.multiExpHPowers(pk, s.expandProductPoly(ids)), k)
	return bk, ct, nil
}

// Decrypt recovers bk for member id:
//
//	bk = ( e(C1, h^{p_{i,S}(γ)}) · e(USK_i, C2) )^{1/Δ},
//	p_{i,S}(x) = (Π_{j≠i}(x+H(u_j)) − Δ)/x,  Δ = Π_{j≠i} H(u_j).
func (s *Scheme) Decrypt(pk *ibbe.PublicKey, id string, usk *ibbe.UserKey, ids []string, ct *ibbe.Ciphertext) (*ibbe.BroadcastKey, error) {
	if usk == nil || usk.D == nil {
		return nil, ibbe.ErrBadKey
	}
	if len(ids) > pk.MaxGroupSize() {
		return nil, fmt.Errorf("%w: %d > %d", ibbe.ErrGroupTooLarge, len(ids), pk.MaxGroupSize())
	}
	others := make([]string, 0, len(ids))
	found := false
	for _, u := range ids {
		if u == id && !found {
			found = true
			continue
		}
		others = append(others, u)
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ibbe.ErrNotMember, id)
	}
	if len(others) == 0 {
		return s.P.PairReference(usk.D, ct.C2), nil // p ≡ 0, Δ = 1
	}
	coeffs := s.expandProductPoly(others)
	hp := s.multiExpHPowers(pk, coeffs[1:])
	num := s.P.GTMul(s.P.PairReference(ct.C1, hp), s.P.PairReference(usk.D, ct.C2))
	dInv, err := s.P.Zr.Inv(coeffs[0])
	if err != nil {
		return nil, fmt.Errorf("ibberef: degenerate receiver set: %w", err)
	}
	return s.P.GTExpBinary(num, dInv), nil
}

// AddUsers extends the receiver set by ids (paper §A-E): C2 and C3 are raised
// to Π(γ+H(u)); C1 and the broadcast key are unchanged.
func (s *Scheme) AddUsers(msk *ibbe.MasterSecretKey, ct *ibbe.Ciphertext, ids []string) *ibbe.Ciphertext {
	e := s.prodGammaPlusHash(msk.Gamma, ids)
	return &ibbe.Ciphertext{C1: ct.C1.Clone(), C2: s.exp(ct.C2, e), C3: s.exp(ct.C3, e)}
}

// RemoveUsers revokes ids and re-keys (paper §A-F): C3 ← C3^(1/Π(γ+H(u))),
// then a fresh k rotates the header. With no ids it is Rekey.
func (s *Scheme) RemoveUsers(msk *ibbe.MasterSecretKey, pk *ibbe.PublicKey, ct *ibbe.Ciphertext, ids []string, rng io.Reader) (*ibbe.BroadcastKey, *ibbe.Ciphertext, error) {
	if len(ids) == 0 {
		return s.Rekey(pk, ct, rng)
	}
	inv, err := s.P.Zr.Inv(s.prodGammaPlusHash(msk.Gamma, ids))
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: identity collides with master secret: %w", err)
	}
	c3 := s.exp(ct.C3, inv)
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: drawing k: %w", err)
	}
	bk, out := s.header(pk, c3, k)
	return bk, out, nil
}

// Rekey draws a fresh broadcast key for the same receiver set (paper §A-G).
func (s *Scheme) Rekey(pk *ibbe.PublicKey, ct *ibbe.Ciphertext, rng io.Reader) (*ibbe.BroadcastKey, *ibbe.Ciphertext, error) {
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibberef: drawing k: %w", err)
	}
	bk, out := s.header(pk, ct.C3.Clone(), k)
	return bk, out, nil
}
