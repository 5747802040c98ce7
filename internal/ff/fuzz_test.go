package ff

import (
	"math/big"
	"testing"
)

// FuzzMontFieldVsBigInt cross-checks the limb Montgomery core against the
// big.Int reference arithmetic on fuzzer-chosen operands over every built-in
// modulus. The raw byte strings deliberately decode to integers wider than
// the modulus as well, exercising the non-canonical reduction path of
// FromBig. CI runs this as a short fuzz smoke (`make fuzz`); locally it can
// run open-ended with `go test -fuzz=FuzzMontFieldVsBigInt ./internal/ff`.
func FuzzMontFieldVsBigInt(f *testing.F) {
	q160, _ := new(big.Int).SetString(montTestModuli["q160"], 10)
	seedInts := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(q160, big.NewInt(1)),
		new(big.Int).Set(q160), // non-canonical
	}
	for _, a := range seedInts {
		for _, b := range seedInts {
			f.Add(a.Bytes(), b.Bytes())
		}
	}
	seed512 := q512FuzzSeeds()
	for _, a := range seed512 {
		for _, b := range seed512 {
			f.Add(a.Bytes(), b.Bytes())
		}
	}

	fields := montTestFields(f)
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte) {
		if len(aRaw) > 96 || len(bRaw) > 96 {
			return // wider than any supported modulus needs; cap the work
		}
		a := new(big.Int).SetBytes(aRaw)
		b := new(big.Int).SetBytes(bRaw)
		for name, fld := range fields {
			m := fld.Mont()
			if m == nil {
				t.Fatalf("%s: Mont() is nil", name)
			}
			var am, bm, out Fel
			m.FromBig(&am, a)
			m.FromBig(&bm, b)

			if got, want := m.ToBig(&am), fld.Reduce(a); got.Cmp(want) != 0 {
				t.Fatalf("%s round trip: got %v want %v", name, got, want)
			}
			m.Mul(&out, &am, &bm)
			if got, want := m.ToBig(&out), fld.Mul(a, b); got.Cmp(want) != 0 {
				t.Fatalf("%s Mul: got %v want %v", name, got, want)
			}
			m.Sqr(&out, &am)
			if got, want := m.ToBig(&out), fld.Sqr(a); got.Cmp(want) != 0 {
				t.Fatalf("%s Sqr: got %v want %v", name, got, want)
			}
			m.Add(&out, &am, &bm)
			if got, want := m.ToBig(&out), fld.Add(a, b); got.Cmp(want) != 0 {
				t.Fatalf("%s Add: got %v want %v", name, got, want)
			}
			m.Sub(&out, &am, &bm)
			if got, want := m.ToBig(&out), fld.Sub(a, b); got.Cmp(want) != 0 {
				t.Fatalf("%s Sub: got %v want %v", name, got, want)
			}
			ok := m.Inv(&out, &am)
			ref, err := fld.Inv(a)
			if ok != (err == nil) {
				t.Fatalf("%s Inv invertibility mismatch", name)
			}
			if ok {
				if got := m.ToBig(&out); got.Cmp(ref) != 0 {
					t.Fatalf("%s Inv: got %v want %v", name, got, ref)
				}
			}
			e := new(big.Int).SetBytes(bRaw)
			if e.BitLen() > 80 {
				e.Rsh(e, uint(e.BitLen()-80)) // keep Exp affordable under fuzzing
			}
			m.Exp(&out, &am, e)
			if got, want := m.ToBig(&out), fld.Exp(fld.Reduce(a), e); got.Cmp(want) != 0 {
				t.Fatalf("%s Exp: got %v want %v", name, got, want)
			}
		}
	})
}

// q512FuzzSeeds returns the paper-width seed operands of
// FuzzMontFieldVsBigInt: q − 1, q (non-canonical), R mod q, 2⁵¹² − 1, 1, and
// (2⁵¹¹ − 1)·R⁻¹ mod q, whose Montgomery form 2⁵¹¹ − 1 times that of 1
// (R mod q) drives a CIOS row to the ninth accumulator word.
func q512FuzzSeeds() []*big.Int {
	q, _ := new(big.Int).SetString(montTestModuli["q512"], 10)
	r := new(big.Int).Lsh(big.NewInt(1), 64*MaxLimbs)
	half := new(big.Int).Rsh(r, 1)
	rInv := new(big.Int).ModInverse(r, q)
	return []*big.Int{
		new(big.Int).Sub(q, big.NewInt(1)),
		new(big.Int).Set(q),
		new(big.Int).Mod(r, q),
		new(big.Int).Sub(r, big.NewInt(1)),
		big.NewInt(1),
		new(big.Int).Mod(new(big.Int).Mul(half.Sub(half, big.NewInt(1)), rInv), q),
	}
}

// TestFuzzSeedsReachTopCarry checks that some pair of q512FuzzSeeds, in the
// Montgomery form FuzzMontFieldVsBigInt multiplies, sets the CIOS word above
// the 8-limb accumulator, so the plain corpus run covers that carry.
func TestFuzzSeedsReachTopCarry(t *testing.T) {
	m := montTestFields(t)["q512"].Mont()
	for _, a := range q512FuzzSeeds() {
		for _, b := range q512FuzzSeeds() {
			var am, bm Fel
			m.FromBig(&am, a)
			m.FromBig(&bm, b)
			if ciosTopWordSet(m, limbsToBig(&am, m.k), limbsToBig(&bm, m.k)) {
				return
			}
		}
	}
	t.Fatal("no q512 seed pair reaches the CIOS top word")
}
