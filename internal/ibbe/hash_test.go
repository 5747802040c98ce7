package ibbe

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// hashTestParams are the parameter sets the limb hash is pinned on: Z_r of
// 81, 122 and 160 bits, reducing 27-, 32- and 36-byte digests.
var hashTestParams = []func() *pairing.Params{pairing.TypeA160, pairing.TypeA256, pairing.TypeA512}

// limbHash returns H(id) through the limb function alone (no memo), as a
// big.Int.
func limbHash(s *Scheme, id string) *big.Int {
	var h ff.Fel
	s.hashIDMont(s.hasher(), &h, id)
	return s.P.Zr.Mont().ToBig(&h)
}

// hashEdgeIDs are the ids at the stack buffer's edges and beyond it.
func hashEdgeIDs() []string {
	out := []string{"", "a", "alice@example.com"}
	for _, n := range []int{idStackBytes - 1, idStackBytes, idStackBytes + 1, 200, 1000} {
		out = append(out, strings.Repeat("x", n), strings.Repeat("é", n/2+1))
	}
	return out
}

// TestHashIDMontMatchesReference is the differential test of the limb hash
// against the big.Int reference: ≥ 20 000 ids per parameter set, plus the
// empty id and ids longer than the stack buffer.
func TestHashIDMontMatchesReference(t *testing.T) {
	for _, params := range hashTestParams {
		p := params()
		t.Run(p.Name(), func(t *testing.T) {
			s := NewScheme(p)
			ids := hashEdgeIDs()
			rng := mrand.New(mrand.NewSource(40))
			for i := 0; i < 20000; i++ {
				ids = append(ids, fmt.Sprintf("user-%d-%x@example.com", i, rng.Uint64()))
			}
			for _, id := range ids {
				want := s.hashIDUncached(id)
				if got := limbHash(s, id); got.Cmp(want) != 0 {
					t.Fatalf("H(%q): limb %v, reference %v", id, got, want)
				}
				if got := s.HashID(id); got.Cmp(want) != 0 {
					t.Fatalf("HashID(%q): %v, reference %v", id, got, want)
				}
			}
		})
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
	}
	var mods []mod
	for _, params := range hashTestParams {
		p := params()
		s := NewScheme(p)
		mods = append(mods, mod{p.Name() + "/r-1", s.rMinus1(), s.hasher().need})
	}
	fullTop := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 192), big.NewInt(237)) // top limb all ones
	lowTop := new(big.Int).Add(new(big.Int).Lsh(bigOne, 128), big.NewInt(51))   // top limb 1
	wide := new(big.Int).Sub(new(big.Int).Lsh(bigOne, 512), big.NewInt(569))    // eight limbs
	mods = append(mods, mod{"full-top-limb", fullTop, 48}, mod{"low-top-limb", lowTop, 48}, mod{"512-bit", wide, 128})

	rng := mrand.New(mrand.NewSource(41))
	for _, md := range mods {
		t.Run(md.name, func(t *testing.T) {
			red := newBarrett(md.d, (md.inBytes+7)/8)
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
// a Scheme whose r − 1 is one of them panics on its first fast-path hash.
func TestBarrettRefuses(t *testing.T) {
	if newBarrett(new(big.Int).Lsh(bigOne, 128), 6) != nil { // d = b²: µ would need k+2 limbs
		t.Fatal("reducer accepted a power of the limb base")
	}
	if newBarrett(big.NewInt(1<<40), 3) != nil {
		t.Fatal("reducer accepted inputs wider than 2k limbs")
	}
}

// FuzzHashID cross-checks the limb hash against the big.Int reference on
// fuzzer-chosen ids at every built-in width, and the reducer against
// big.Int Mod on fuzzer-chosen digests. CI runs it as a short smoke
// (`make fuzz`).
func FuzzHashID(f *testing.F) {
	f.Add("", []byte{})
	f.Add("alice@example.com", []byte{0xff, 0xff, 0xff})
	f.Add(strings.Repeat("x", idStackBytes+1), []byte(strings.Repeat("\xff", 36)))
	schemes := make([]*Scheme, len(hashTestParams))
	for i, params := range hashTestParams {
		schemes[i] = NewScheme(params())
	}
	f.Fuzz(func(t *testing.T, id string, digest []byte) {
		for _, s := range schemes {
			want := s.hashIDUncached(id)
			if got := limbHash(s, id); got.Cmp(want) != 0 {
				t.Fatalf("%s: H(%q): limb %v, reference %v", s.P.Name(), id, got, want)
			}
			if got := s.HashID(id); got.Cmp(want) != 0 {
				t.Fatalf("%s: HashID(%q) through the memo: %v, reference %v", s.P.Name(), id, got, want)
			}
			hs := s.hasher()
			v := new(big.Int).SetBytes(digest[:min(len(digest), hs.need)])
			var x [2 * ff.MaxLimbs]uint64
			bigLimbs(x[:], v)
			var got, want2 ff.Fel
			hs.red.reduce(&got, &x)
			bigLimbs(want2[:], new(big.Int).Mod(v, s.rMinus1()))
			if got != want2 {
				t.Fatalf("%s: %v mod r−1: got %x, want %x", s.P.Name(), v, got, want2)
			}
		}
	})
}
