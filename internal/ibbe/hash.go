package ibbe

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// idStackBytes bounds the ids hashed off a stack buffer; a longer id is
// copied into a heap buffer and takes the same digest blocks and reduction.
const idStackBytes = 124

// wideBytes is the byte width of the reducer's widest input, 2·MaxLimbs
// limbs; every digest H reduces (bytes(r) + 16) fits in it.
const wideBytes = 16 * ff.MaxLimbs

// idHasher is a Scheme's identity-hash state, built by NewScheme: the digest
// width and the Barrett reducer modulo r − 1.
type idHasher struct {
	need int      // digest bytes reduced: bytes(r) + 16
	red  *barrett // the reducer modulo r − 1
}

// newIDHasher builds the identity-hash state for the scalar field of order
// r. It panics when r − 1 has no fixed-limb reducer, which no built-in
// parameter set hits.
func newIDHasher(r *big.Int) idHasher {
	need := (r.BitLen()+7)/8 + 16
	red := newBarrett(new(big.Int).Sub(r, bigOne), (need+7)/8)
	if red == nil {
		panic(fmt.Sprintf("ibbe: no fixed-limb reducer modulo r − 1 for a %d-bit r", r.BitLen()))
	}
	return idHasher{need: need, red: red}
}

// HashID maps an identity string into Z_r* (the function H of the paper).
// It is deterministic, never returns zero, and oversamples SHA-256 output to
// keep the modular bias negligible. The result is a fresh big.Int the caller
// owns.
func (s *Scheme) HashID(id string) *big.Int {
	var h ff.Fel
	s.hashMont(&h, id)
	return s.P.Zr.Mont().ToBig(&h)
}

// hashMont sets dst to H(id) in Z_r's Montgomery form. Every roster product
// (prodGammaPlusHash, expandProductPoly) takes its hashes here: the
// digest blocks SHA-256(block ‖ id) are hashed, the first need bytes are
// reduced modulo r − 1 by the fixed-limb Barrett step, 1 is added, and one
// product by R² takes the value into the Montgomery domain. It allocates
// nothing for ids up to idStackBytes.
func (s *Scheme) hashMont(dst *ff.Fel, id string) {
	hs := &s.hash
	var stack [4 + idStackBytes]byte
	buf := stack[:]
	if len(id) > idStackBytes {
		buf = make([]byte, 4+len(id))
	}
	buf = buf[:4+copy(buf[4:], id)]
	// The digest is written right-aligned in wide, so its need bytes end on
	// a limb boundary and decode as whole big-endian limbs; the bytes of the
	// last block past need spill into the slack and are ignored.
	var wide [wideBytes + sha256.Size]byte
	for block, off := uint32(0), wideBytes-hs.need; off < wideBytes; block, off = block+1, off+sha256.Size {
		binary.BigEndian.PutUint32(buf[:4], block)
		sum := sha256.Sum256(buf)
		copy(wide[off:], sum[:])
	}
	var x [2 * ff.MaxLimbs]uint64
	for i := 0; i < 2*hs.red.k; i++ {
		x[i] = binary.BigEndian.Uint64(wide[wideBytes-8*(i+1):])
	}
	var v ff.Fel
	hs.red.reduce(&v, &x)
	m := s.P.Zr.Mont()
	c := uint64(1) // v + 1 ≤ r − 1: no carry leaves the k limbs
	for i := 0; i < m.K(); i++ {
		v[i], c = bits.Add64(v[i], 0, c)
	}
	m.ToMont(dst, &v)
}

var bigOne = big.NewInt(1)

// barrett reduces wide values modulo a fixed d by Barrett's method (HAC
// Alg. 14.42, base b = 2⁶⁴). For d of k limbs with a non-zero top limb and
// x < b^{2k}, the quotient estimate q̂ = ⌊⌊x/b^{k−1}⌋·µ/b^{k+1}⌋ with
// µ = ⌊b^{2k}/d⌋ falls short of ⌊x/d⌋ by at most 2, so x − q̂·d, taken
// modulo b^{k+1}, lies in [0, 3d) and two masked subtractions of d finish the
// reduction. No division runs per value.
type barrett struct {
	k  int
	d  [ff.MaxLimbs + 1]uint64 // d's limbs; limb k is zero for the (k+1)-limb compare
	mu [ff.MaxLimbs + 1]uint64
}

// newBarrett precomputes the reducer for modulus d and inputs of at most
// inLimbs limbs, or returns nil when the step does not apply: d wider than
// the limb core, inputs of more than 2k limbs (a d of one limb, where the
// 16 oversampling bytes alone exceed b²), or a µ of k+2 limbs (d a power of
// b).
func newBarrett(d *big.Int, inLimbs int) *barrett {
	k := (d.BitLen() + 63) / 64
	if k == 0 || k > ff.MaxLimbs || inLimbs > 2*k {
		return nil
	}
	mu := new(big.Int).Lsh(bigOne, uint(128*k))
	mu.Quo(mu, d)
	if mu.BitLen() > 64*(k+1) {
		return nil
	}
	b := &barrett{k: k}
	bigLimbs(b.d[:k], d)
	bigLimbs(b.mu[:k+1], mu)
	return b
}

// bigLimbs writes v (< 2^(64·len(dst))) into dst as little-endian limbs,
// independent of the platform's big.Word size.
func bigLimbs(dst []uint64, v *big.Int) {
	buf := v.FillBytes(make([]byte, 8*len(dst)))
	for i := range dst {
		dst[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
}

// reduce sets dst = x mod d for x < b^{2k}, given as little-endian limbs.
// The limbs of dst above k are zeroed.
func (b *barrett) reduce(dst *ff.Fel, x *[2 * ff.MaxLimbs]uint64) {
	k := b.k
	// q̂: limbs k+1 … 2k+1 of ⌊x/b^{k−1}⌋·µ, a (k+1)×(k+1)-limb product.
	var p [2*ff.MaxLimbs + 2]uint64
	for i := 0; i <= k; i++ {
		w := x[k-1+i]
		var c uint64
		for j := 0; j <= k; j++ {
			hi, lo := bits.Mul64(w, b.mu[j])
			var cc uint64
			lo, cc = bits.Add64(lo, p[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			p[i+j], c = lo, hi+cc
		}
		p[i+k+1] = c
	}
	// q̂·d modulo b^{k+1}: only the partial products below limb k+1 count
	// (d's limb k is zero, so j may run to k−i).
	var qd [ff.MaxLimbs + 1]uint64
	for i := 0; i <= k; i++ {
		w := p[k+1+i]
		var c uint64
		for j := 0; i+j <= k; j++ {
			hi, lo := bits.Mul64(w, b.d[j])
			var cc uint64
			lo, cc = bits.Add64(lo, qd[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			qd[i+j], c = lo, hi+cc
		}
	}
	var r [ff.MaxLimbs + 1]uint64
	var borrow uint64
	for i := 0; i <= k; i++ {
		r[i], borrow = bits.Sub64(x[i], qd[i], borrow)
	}
	for range 2 {
		var t [ff.MaxLimbs + 1]uint64
		borrow = 0
		for i := 0; i <= k; i++ {
			t[i], borrow = bits.Sub64(r[i], b.d[i], borrow)
		}
		keep := -borrow // all ones when r < d
		for i := 0; i <= k; i++ {
			r[i] = r[i]&keep | t[i]&^keep
		}
	}
	*dst = ff.Fel{}
	copy(dst[:k], r[:k])
}
