package curve

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// TestCTSelectReturnsEveryEntry pins the register-resident row scan: for
// every index of the 8-entry rows of ScalarMultConstTime and the 32-entry
// rows of a FixedBase, ctSelect returns exactly that entry and ctLoadDigit
// that entry or its negation, on every parameter set. A row of random words
// in all ff.MaxLimbs limbs covers the accumulators a narrow field leaves
// zero.
func TestCTSelectReturnsEveryEntry(t *testing.T) {
	rng := mrand.New(mrand.NewSource(33))
	for name, c := range fastPathCurves(t) {
		m := c.mont()
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		synthetic := make([]montAffine, 1<<(fixedBaseWindow-1))
		for i := range synthetic {
			for l := range synthetic[i].x {
				synthetic[i].x[l], synthetic[i].y[l] = rng.Uint64(), rng.Uint64()
			}
		}
		rows := map[string][]montAffine{
			"ctWindow":        c.montOddMultiples(m, p, 1<<(ctWindow-1)),
			"fixedBaseWindow": c.montOddMultiples(m, p, 1<<(fixedBaseWindow-1)),
			"random-limbs":    synthetic,
		}
		for rname, row := range rows {
			for idx := range row {
				var got montAffine
				got.inf = true
				ctSelect(&got, row, uint64(idx))
				if got.x != row[idx].x || got.y != row[idx].y {
					t.Fatalf("%s/%s: ctSelect(%d) of %d ≠ row[%d]", name, rname, idx, len(row), idx)
				}
				if rname == "random-limbs" {
					continue // not field elements: CondNeg needs reduced limbs
				}
				for _, d := range []int8{int8(2*idx + 1), -int8(2*idx + 1)} {
					ctLoadDigit(m, &got, row, d)
					want := row[idx].y
					if d < 0 {
						m.Neg(&want, &want)
					}
					if got.inf || got.x != row[idx].x || got.y != want {
						t.Fatalf("%s/%s: ctLoadDigit(%d) ≠ ±row[%d]", name, rname, d, idx)
					}
				}
			}
		}
	}
}

// TestMontNormalizeBlindedMatchesPlain checks that blinding the inversion
// changes nothing: on random batches of Jacobian points with random Z, the
// identity mixed in (and a batch of identities alone), the blinded
// normalisation equals the plain one limb for limb.
func TestMontNormalizeBlindedMatchesPlain(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		m := c.mont()
		for trial := 0; trial < 8; trial++ {
			n := 1 + trial*3
			js := make([]montJac, n)
			for i := range js {
				if (i+trial)%4 == 0 {
					js[i].setInfinity(m)
					continue
				}
				p, err := c.RandPoint(rand.Reader)
				if err != nil {
					t.Fatalf("%s: RandPoint: %v", name, err)
				}
				z, err := c.F.RandNonZero(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				// (x·z², y·z³, z) is the same point as (x, y).
				a := toMontAffine(m, p)
				var zz, z2, z3 ff.Fel
				m.FromBig(&zz, z)
				m.Sqr(&z2, &zz)
				m.Mul(&z3, &z2, &zz)
				m.Mul(&js[i].x, &a.x, &z2)
				m.Mul(&js[i].y, &a.y, &z3)
				js[i].z = zz
			}
			plain := montNormalize(m, append([]montJac(nil), js...), nil)
			blinded := montNormalize(m, js, c.ctBlind(m))
			for i := range plain {
				if plain[i] != blinded[i] {
					t.Fatalf("%s: trial %d: entry %d of %d: blinded normalisation differs", name, trial, i, n)
				}
			}
		}
		inf := make([]montJac, 3)
		for i := range inf {
			inf[i].setInfinity(m)
		}
		for i, a := range montNormalize(m, inf, c.ctBlind(m)) {
			if !a.inf {
				t.Fatalf("%s: identity %d normalised to a finite point", name, i)
			}
		}
	}
}

// FuzzMulConstTimeEach differentially fuzzes the fixed-base constant-time
// walk: the input bytes pick one to three tables from a pool (two bases and
// the identity) and one scalar of any length for each — zero, r, r ± 1 and
// values past r included — and every result must equal ScalarMultReduced
// bit for bit.
func FuzzMulConstTimeEach(f *testing.F) {
	r, _ := new(big.Int).SetString(fastPathParams[0].r, 10)
	one := big.NewInt(1)
	f.Add(byte(0), []byte{0})
	f.Add(byte(1), append([]byte{byte(len(r.Bytes()))}, r.Bytes()...))
	rm1, rp1 := new(big.Int).Sub(r, one).Bytes(), new(big.Int).Add(r, one).Bytes()
	f.Add(byte(5), append(append([]byte{byte(len(rm1))}, rm1...), append([]byte{byte(len(rp1))}, rp1...)...))
	f.Add(byte(2), []byte{39, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x07})
	f.Add(byte(4), []byte("three scalars: the ones, the twos, and what is left of r"))
	q, _ := new(big.Int).SetString(fastPathParams[0].q, 10)
	h, _ := new(big.Int).SetString(fastPathParams[0].h, 10)
	fld, err := ff.NewField(q)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewCurve(fld, r, h)
	if err != nil {
		f.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(9))
	var pool []*FixedBase
	for i := 0; i < 2; i++ {
		p, err := c.RandPoint(rng)
		if err != nil {
			f.Fatal(err)
		}
		pool = append(pool, c.NewFixedBase(p))
	}
	pool = append(pool, c.NewFixedBase(c.Infinity()))
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		n := int(pick%3) + 1
		fbs := make([]*FixedBase, n)
		ks := make([]*big.Int, n)
		for i := range fbs {
			fbs[i] = pool[(int(pick/3)+i)%len(pool)]
			size := 0
			if len(data) > 0 {
				size = min(int(data[0])%48, len(data)-1)
				data = data[1:]
			}
			ks[i] = new(big.Int).SetBytes(data[:size])
			data = data[size:]
		}
		got := c.MulConstTimeEach(fbs, ks)
		for i, fb := range fbs {
			want := c.ScalarMultReduced(fb.Point(), ks[i])
			if string(c.Marshal(got[i])) != string(c.Marshal(want)) {
				t.Fatalf("table %d of %d, k = %v: MulConstTimeEach diverges from ScalarMultReduced", i, n, ks[i])
			}
		}
	})
}
