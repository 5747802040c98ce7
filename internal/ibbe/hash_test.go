package ibbe

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// hashTestParams are the parameter sets the reducer is pinned on: Z_r of
// 81, 122 and 160 bits, reducing 27-, 32- and 36-byte digests.
var hashTestParams = []func() *pairing.Params{pairing.TypeA160, pairing.TypeA256, pairing.TypeA512}

// plainHash is H written out in big.Int arithmetic: the digest blocks
// SHA-256(block ‖ id) concatenated, their first bytes(r) + 16 bytes taken
// modulo r − 1, plus 1.
func plainHash(s *Scheme, id string) *big.Int {
	need := (s.P.R.BitLen()+7)/8 + 16
	var digest []byte
	for block := uint32(0); len(digest) < need; block++ {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], block)
		sum := sha256.Sum256(append(b[:], id...))
		digest = append(digest, sum[:]...)
	}
	v := new(big.Int).SetBytes(digest[:need])
	v.Mod(v, new(big.Int).Sub(s.P.R, bigOne))
	return v.Add(v, bigOne)
}

// TestHashIDMemoMatchesUncachedAndCopies checks that HashID, on a first and a
// repeated call, returns the value hashMont computes in Montgomery form and
// the value of H written out in big.Int arithmetic, and that no returned
// big.Int aliases state a later call reads.
func TestHashIDMemoMatchesUncachedAndCopies(t *testing.T) {
	s := testScheme(t)
	m := s.P.Zr.Mont()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("memo-%03d@example.com", i)
		first := s.HashID(id)
		second := s.HashID(id)
		if first.Cmp(second) != 0 {
			t.Fatalf("repeated hash differs for %s", id)
		}
		var h ff.Fel
		s.hashMont(&h, id)
		if first.Cmp(m.ToBig(&h)) != 0 {
			t.Fatalf("HashID differs from hashMont for %s", id)
		}
		if first.Cmp(plainHash(s, id)) != 0 {
			t.Fatalf("HashID differs from the big.Int definition for %s", id)
		}
		// Mutating a returned value must not change the next result.
		second.SetInt64(1)
		if s.HashID(id).Cmp(first) != 0 {
			t.Fatalf("hash changed through a returned value for %s", id)
		}
	}
}

// TestHashMontAllocatesNothing checks that H allocates nothing for ids of
// up to idStackBytes, at every built-in width: the digest blocks, the
// reduction and the Montgomery conversion all run off the stack.
func TestHashMontAllocatesNothing(t *testing.T) {
	for _, params := range hashTestParams {
		s := NewScheme(params())
		ids := []string{"", "alice@example.com", strings.Repeat("x", idStackBytes)}
		for i := 0; i < 64; i++ {
			ids = append(ids, fmt.Sprintf("alloc-%05d@example.com", i))
		}
		var h ff.Fel
		next := 0
		allocs := testing.AllocsPerRun(len(ids)-1, func() {
			s.hashMont(&h, ids[next%len(ids)])
			next++
		})
		if allocs != 0 {
			t.Fatalf("%s: hashMont allocates %.1f times per id; want 0", s.P.Name(), allocs)
		}
	}
}

// TestBarrettReduceEdges checks the reducer on crafted wide values around
// multiples of its modulus against big.Int Mod, for the built-in d = r − 1
// and for moduli with a full and a minimal top limb.
func TestBarrettReduceEdges(t *testing.T) {
	type mod struct {
		name    string
		d       *big.Int
		inBytes int
		red     *barrett // the Scheme's own reducer; nil builds one for d
	}
	var mods []mod
	for _, params := range hashTestParams {
		s := NewScheme(params())
		rm1 := new(big.Int).Sub(s.P.R, bigOne)
		mods = append(mods, mod{s.P.Name() + "/r-1", rm1, s.hash.need, s.hash.red})
	}
	fullTop := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 192), big.NewInt(237)) // top limb all ones
	lowTop := new(big.Int).Add(new(big.Int).Lsh(bigOne, 128), big.NewInt(51))   // top limb 1
	wide := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 512), big.NewInt(569))    // eight limbs
	mods = append(mods, mod{"full-top-limb", fullTop, 48, nil}, mod{"low-top-limb", lowTop, 48, nil}, mod{"512-bit", wide, 128, nil})

	rng := mrand.New(mrand.NewSource(41))
	for _, md := range mods {
		t.Run(md.name, func(t *testing.T) {
			red := md.red
			if red == nil {
				red = newBarrett(md.d, (md.inBytes+7)/8)
			}
			if red == nil {
				t.Fatal("reducer refused a supported modulus")
			}
			top := new(big.Int).Lsh(bigOne, uint(8*md.inBytes)) // inputs are < top
			one := big.NewInt(1)
			d := md.d
			vals := []*big.Int{
				big.NewInt(0), one,
				new(big.Int).Sub(d, one), new(big.Int).Set(d), new(big.Int).Add(d, one),
				new(big.Int).Add(d, big.NewInt(2)),
				new(big.Int).Sub(top, one),
			}
			maxMul := new(big.Int).Quo(new(big.Int).Sub(top, big.NewInt(2)), d)
			muls := []*big.Int{big.NewInt(2), big.NewInt(3), new(big.Int).Sub(maxMul, one), maxMul}
			for i := 0; i < 64; i++ {
				muls = append(muls, new(big.Int).Rand(rng, maxMul))
			}
			for _, j := range muls {
				jd := new(big.Int).Mul(j, d)
				vals = append(vals, new(big.Int).Sub(jd, one), jd, new(big.Int).Add(jd, one))
			}
			for i := 0; i < 256; i++ {
				vals = append(vals, new(big.Int).Rand(rng, top))
			}
			for _, v := range vals {
				if v.Sign() < 0 || v.Cmp(top) >= 0 {
					continue
				}
				var x [2 * ff.MaxLimbs]uint64
				bigLimbs(x[:], v)
				var got ff.Fel
				red.reduce(&got, &x)
				var wantL ff.Fel
				bigLimbs(wantL[:], new(big.Int).Mod(v, d))
				if got != wantL {
					t.Fatalf("%v mod %v: got limbs %x, want %x", v, d, got, wantL)
				}
			}
		})
	}
}

// TestBarrettRefuses covers the moduli the fixed-limb step does not take;
// NewScheme panics over a Z_r whose r − 1 is one of them.
func TestBarrettRefuses(t *testing.T) {
	if newBarrett(new(big.Int).Lsh(bigOne, 128), 6) != nil { // d = b²: µ would need k+2 limbs
		t.Fatal("reducer accepted a power of the limb base")
	}
	if newBarrett(big.NewInt(1<<40), 3) != nil {
		t.Fatal("reducer accepted inputs wider than 2k limbs")
	}
}
