package ibbe

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/big"
	"math/bits"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// hashMemoSets sizes the identity-hash memo: 2048 sets of two ways, 4096
// entries in a fixed table. An id can live only in the set its seeded string
// hash picks, and a miss overwrites the set's less recently used way, so an
// id re-hashed on every call (a partition's roster under EncryptMSK or a
// decrypt) is evicted only when two other ids of the working set share its
// set. A group creation over far more fresh ids (65 536 in the paged
// benchmark group, 10⁶ at paper scale) mostly misses and need not do better:
// each id costs one entry write, with no map growth, no reset and no
// allocation.
const hashMemoSets = 2048

// idStackBytes bounds the ids hashed off the stack; a longer id takes
// hashIDBig.
const idStackBytes = 124

// wideBytes is the byte width of the reducer's widest input, 2·MaxLimbs
// limbs; every digest H reduces (bytes(r) + 16) fits in it.
const wideBytes = 16 * ff.MaxLimbs

// idHasher is a Scheme's identity-hash state, built on the first hash: the
// digest width, r − 1, its Barrett reducer and the memo.
type idHasher struct {
	sets [hashMemoSets]hashSet // first, so every set starts on a cache line
	need int                   // digest bytes reduced: bytes(r) + 16
	rm1  *big.Int              // r − 1
	red  *barrett              // the reducer modulo r − 1
	seed maphash.Seed
}

// hashSet is one set of the memo: two ways, each an id and H(id) in Z_r's
// Montgomery form, under one lock. The lookup keys fill the set's first 64
// bytes and the two values the next 128, so a probe reads one cache line and
// a hit or a fill one more.
type hashSet struct {
	mu   sync.Mutex
	last uint8     // the way hit or filled last, which a miss spares
	full [2]bool   // the empty id is a valid id, so emptiness needs its own bit
	tag  [2]uint64 // the ids' seeded string hashes, compared before the ids
	id   [2]string
	v    [2]ff.Fel
}

// hasher returns the Scheme's identity-hash state, building it once.
func (s *Scheme) hasher() *idHasher {
	s.hashOnce.Do(func() {
		hs := &idHasher{
			need: (s.P.R.BitLen()+7)/8 + 16,
			rm1:  new(big.Int).Sub(s.P.R, bigOne),
			seed: maphash.MakeSeed(),
		}
		if hs.red = newBarrett(hs.rm1, (hs.need+7)/8); hs.red == nil {
			panic(fmt.Sprintf("ibbe: no fixed-limb reducer modulo r − 1 for a %d-bit r", s.P.R.BitLen()))
		}
		s.hash = hs
	})
	return s.hash
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

// hashMont sets dst to H(id) in Z_r's Montgomery form, through the memo.
// Every roster product (prodGammaPlusHash, expandProductPolyMont) takes its
// hashes here, allocation-free.
func (s *Scheme) hashMont(dst *ff.Fel, id string) {
	hs := s.hasher()
	tag := hs.tag(id)
	set := &hs.sets[tag%hashMemoSets]
	set.mu.Lock()
	for w := range set.id {
		if set.full[w] && set.tag[w] == tag && set.id[w] == id {
			*dst = set.v[w]
			set.last = uint8(w)
			set.mu.Unlock()
			return
		}
	}
	set.mu.Unlock()
	s.hashIDMont(hs, dst, id)
	set.mu.Lock()
	w := 1 - set.last
	set.full[w], set.tag[w], set.id[w], set.v[w] = true, tag, id, *dst
	set.last = w
	set.mu.Unlock()
}

// tag is id's seeded string hash; it picks id's memo set.
func (hs *idHasher) tag(id string) uint64 { return maphash.String(hs.seed, id) }

// hashIDMont computes H(id) straight into Z_r's limbs, bypassing the memo:
// the digest blocks SHA-256(block ‖ id) are hashed off a stack buffer, the
// first need bytes are reduced modulo r − 1 by the fixed-limb Barrett step,
// 1 is added, and one product by R² takes the value into the Montgomery
// domain. It allocates nothing for ids up to idStackBytes; a longer id takes
// hashIDBig.
func (s *Scheme) hashIDMont(hs *idHasher, dst *ff.Fel, id string) {
	m := s.P.Zr.Mont()
	if len(id) > idStackBytes {
		m.FromBig(dst, hs.hashIDBig(id))
		return
	}
	// The digest is written right-aligned in wide, so its need bytes end on
	// a limb boundary and decode as whole big-endian limbs; the bytes of the
	// last block past need spill into the slack and are ignored.
	var wide [wideBytes + sha256.Size]byte
	var buf [4 + idStackBytes]byte
	copy(buf[4:], id)
	for block, off := uint32(0), wideBytes-hs.need; off < wideBytes; block, off = block+1, off+sha256.Size {
		binary.BigEndian.PutUint32(buf[:4], block)
		sum := sha256.Sum256(buf[:4+len(id)])
		copy(wide[off:], sum[:])
	}
	var x [2 * ff.MaxLimbs]uint64
	for i := 0; i < 2*hs.red.k; i++ {
		x[i] = binary.BigEndian.Uint64(wide[wideBytes-8*(i+1):])
	}
	var v ff.Fel
	hs.red.reduce(&v, &x)
	c := uint64(1) // v + 1 ≤ r − 1: no carry leaves the k limbs
	for i := 0; i < m.K(); i++ {
		v[i], c = bits.Add64(v[i], 0, c)
	}
	m.ToMont(dst, &v)
}

// hashIDBig is H for an id longer than idStackBytes: the same digest blocks
// off a heap buffer, reduced modulo r − 1 with big.Int, plus 1.
func (hs *idHasher) hashIDBig(id string) *big.Int {
	buf := make([]byte, 4+len(id))
	copy(buf[4:], id)
	out := make([]byte, 0, hs.need+sha256.Size)
	for block := uint32(0); len(out) < hs.need; block++ {
		binary.BigEndian.PutUint32(buf[:4], block)
		sum := sha256.Sum256(buf)
		out = append(out, sum[:]...)
	}
	v := new(big.Int).SetBytes(out[:hs.need])
	v.Mod(v, hs.rm1)
	return v.Add(v, bigOne) // uniform in [1, r−1]
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
