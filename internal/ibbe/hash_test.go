package ibbe

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// hashTestParams are the parameter sets the reducer is pinned on: Z_r of
// 81, 122 and 160 bits, reducing 27-, 32- and 36-byte digests.
var hashTestParams = []func() *pairing.Params{pairing.TypeA160, pairing.TypeA256, pairing.TypeA512}

// limbHash returns H(id) through the limb function alone (no memo), as a
// big.Int.
func limbHash(s *Scheme, id string) *big.Int {
	var h ff.Fel
	s.hashIDMont(s.hasher(), &h, id)
	return s.P.Zr.Mont().ToBig(&h)
}

// setOf is the memo set id maps to.
func (hs *idHasher) setOf(id string) *hashSet { return &hs.sets[hs.tag(id)%hashMemoSets] }

// memoHolds reports whether id's memo set holds an entry for it.
func (hs *idHasher) memoHolds(id string) bool {
	set := hs.setOf(id)
	set.mu.Lock()
	defer set.mu.Unlock()
	for w := range set.id {
		if set.full[w] && set.id[w] == id {
			return true
		}
	}
	return false
}

// TestHashIDMemoMatchesUncachedAndCopies checks that a memo hit returns the
// limb function's value and that no returned big.Int aliases the table.
func TestHashIDMemoMatchesUncachedAndCopies(t *testing.T) {
	s := testScheme(t)
	hs := s.hasher()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("memo-%03d@example.com", i)
		first := s.HashID(id) // fills an entry of the id's set
		if !hs.memoHolds(id) {
			t.Fatalf("%s: miss did not fill its set", id)
		}
		second := s.HashID(id) // memo hit
		if first.Cmp(second) != 0 {
			t.Fatalf("memoized hash differs for %s", id)
		}
		if first.Cmp(limbHash(s, id)) != 0 {
			t.Fatalf("memoized hash differs from uncached for %s", id)
		}
		// Mutating a returned value must not poison the cache.
		second.SetInt64(1)
		if s.HashID(id).Cmp(first) != 0 {
			t.Fatalf("cache poisoned through returned value for %s", id)
		}
	}
}

// TestHashIDMemoBounded sweeps more fresh ids than the table has entries: a
// miss must allocate nothing (no growth, no per-entry value), and every
// filled entry must sit in its id's set and hold its id's hash.
func TestHashIDMemoBounded(t *testing.T) {
	s := testScheme(t)
	hs := s.hasher()
	fresh := make([]string, 4*hashMemoSets)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("bound-%05d@example.com", i)
	}
	var h ff.Fel
	next := 0
	allocs := testing.AllocsPerRun(len(fresh)-1, func() {
		s.hashMont(&h, fresh[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("a memo miss allocates %.1f times; want 0", allocs)
	}
	m := s.P.Zr.Mont()
	filled := 0
	for i := range hs.sets {
		set := &hs.sets[i]
		for w := range set.id {
			if !set.full[w] {
				continue
			}
			filled++
			if hs.setOf(set.id[w]) != set || m.ToBig(&set.v[w]).Cmp(limbHash(s, set.id[w])) != 0 {
				t.Fatalf("set %d holds a wrong entry for %s", i, set.id[w])
			}
		}
	}
	if filled > 2*hashMemoSets || filled < hashMemoSets {
		t.Fatalf("%d entries filled after %d fresh ids into %d", filled, len(fresh), 2*hashMemoSets)
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
		mods = append(mods, mod{p.Name() + "/r-1", s.hasher().rm1, s.hasher().need})
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
