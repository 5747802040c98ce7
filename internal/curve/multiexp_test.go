package curve

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// wnafDigitsReference is the textbook big.Int w-NAF recoding — subtract the
// signed residue, shift by one, repeat — kept as the reference the limb
// recoding (wnafDigits) is pinned against.
func wnafDigitsReference(k *big.Int, w uint) []int8 {
	d := new(big.Int).Set(k)
	digits := make([]int8, 0, d.BitLen()+1)
	mod := int64(1) << w
	half := mod >> 1
	t := new(big.Int)
	for d.Sign() > 0 {
		if d.Bit(0) == 0 {
			digits = append(digits, 0)
			d.Rsh(d, 1)
			continue
		}
		r := int64(0)
		for b := uint(0); b < w; b++ {
			r |= int64(d.Bit(int(b))) << b
		}
		if r >= half {
			r -= mod
		}
		digits = append(digits, int8(r))
		d.Sub(d, t.SetInt64(r))
		d.Rsh(d, 1)
	}
	return digits
}

// recodingScalars returns scalars that stress the limb recoding: limb
// boundaries (a window straddling two limbs, a carry out of the top limb),
// runs of ones that keep the borrow alive, the subgroup-order edges of every
// parameter set, cofactor-sized values (ClearCofactor multiplies by ≈ 350
// bits) and random values of every length up to 600 bits.
func recodingScalars(t *testing.T) []*big.Int {
	t.Helper()
	one := big.NewInt(1)
	var ks []*big.Int
	for _, bits := range []uint{1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256, 511, 512, 513} {
		pow := new(big.Int).Lsh(one, bits)
		ks = append(ks, pow, new(big.Int).Sub(pow, one), new(big.Int).Add(pow, one))
	}
	alt, _ := new(big.Int).SetString("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", 16)
	ks = append(ks, alt, new(big.Int).Rsh(alt, 1))
	for _, c := range fastPathCurves(t) {
		ks = append(ks, new(big.Int).Sub(c.R, one), c.R, new(big.Int).Add(c.R, one), c.Cofactor)
	}
	rng := mrand.New(mrand.NewSource(7))
	for bits := 1; bits <= 600; bits += 3 {
		ks = append(ks, new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(bits))))
	}
	return ks
}

func TestWNAFDigitsMatchBigIntRecoding(t *testing.T) {
	for _, k := range recodingScalars(t) {
		if k.Sign() == 0 {
			continue
		}
		for w := uint(2); w <= 8; w++ {
			got, want := wnafDigits(k, w), wnafDigitsReference(k, w)
			if string(int8Bytes(got)) != string(int8Bytes(want)) {
				t.Fatalf("w=%d, k=%x: limb recoding %v, big.Int recoding %v", w, k, got, want)
			}
		}
	}
}

func int8Bytes(ds []int8) []byte {
	out := make([]byte, len(ds))
	for i, d := range ds {
		out[i] = byte(d)
	}
	return out
}

// wideFieldCurve returns a y² = x³ + x curve over a ≈ 600-bit prime field,
// wider than the limb core takes (ff.MaxLimbs · 64 bits), so every table and
// walk runs its big.Int form. q = h·r − 1 with 4 | h gives q ≡ 3 (mod 4) and
// an order-r subgroup for the 160-bit r of type-a-160.
func wideFieldCurve(t *testing.T) *Curve {
	t.Helper()
	r, _ := new(big.Int).SetString(fastPathParams[0].r, 10)
	h := new(big.Int).Lsh(big.NewInt(1), 600-uint(r.BitLen()))
	q := new(big.Int)
	for step := big.NewInt(4); ; h.Add(h, step) {
		q.Mul(h, r).Sub(q, big.NewInt(1))
		if q.ProbablyPrime(20) {
			break
		}
	}
	f, err := ff.NewField(q)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mont() != nil {
		t.Fatalf("a %d-bit field has a limb core", q.BitLen())
	}
	c, err := NewCurve(f, r, h)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// naiveMultiExp is Σ (ks[i] mod r)·pts[i] by the binary reference ladder; a
// nil scalar counts as zero.
func naiveMultiExp(c *Curve, pts []*Point, ks []*big.Int) *Point {
	acc := c.Infinity()
	for i, k := range ks {
		if k == nil {
			continue
		}
		acc = c.Add(acc, c.ScalarMultBinary(pts[i], new(big.Int).Mod(k, c.R)))
	}
	return acc
}

// TestMultiExpTableMatchesScalarMultBinary pins the wide public-key table and
// the narrow one-shot form against the binary ladder, bit for bit, on every
// parameter set and on a field too wide for the limb core: edge scalars
// (nil, 0, 1, r − 1, r, > r), an identity base, and shifted offsets as
// Decrypt uses them.
func TestMultiExpTableMatchesScalarMultBinary(t *testing.T) {
	curves := fastPathCurves(t)
	curves["wide-600"] = wideFieldCurve(t)
	for name, c := range curves {
		rng := mrand.New(mrand.NewSource(11))
		const n = 40 // ≥ 2 chunks of the parallel walk
		points := make([]*Point, n)
		for i := range points {
			p, err := c.RandPoint(rng)
			if err != nil {
				t.Fatalf("%s: RandPoint: %v", name, err)
			}
			points[i] = p
		}
		points[3] = c.Infinity()
		scalars := make([]*big.Int, n)
		for i := range scalars {
			scalars[i] = new(big.Int).Rand(rng, c.R)
		}
		one := big.NewInt(1)
		scalars[0] = nil
		scalars[1] = big.NewInt(0)
		scalars[2] = one
		scalars[3] = big.NewInt(5) // on the identity base
		scalars[4] = new(big.Int).Sub(c.R, one)
		scalars[5] = new(big.Int).Set(c.R)
		scalars[6] = new(big.Int).Add(c.R, big.NewInt(9))
		scalars[7] = new(big.Int).Lsh(c.R, 70) // far above r, ≡ 0
		scalars[8] = new(big.Int).Add(new(big.Int).Lsh(c.R, 70), big.NewInt(3))

		wide := c.NewMultiExpTable(points)
		if wide.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", name, wide.Len(), n)
		}
		for offset := 0; offset < 3; offset++ {
			sub := scalars[:n-offset]
			want := c.Marshal(naiveMultiExp(c, points[offset:], sub))
			if got := c.Marshal(wide.MultiExp(sub, offset)); string(got) != string(want) {
				t.Fatalf("%s: MultiExpTable.MultiExp(offset=%d) diverges from the binary ladder", name, offset)
			}
		}
		want := c.Marshal(naiveMultiExp(c, points, scalars))
		if got := c.Marshal(c.MultiExp(points, scalars)); string(got) != string(want) {
			t.Fatalf("%s: one-shot MultiExp diverges from the binary ladder", name)
		}
		if !wide.MultiExp(scalars[:2], 0).Inf || !wide.MultiExp(nil, n).Inf {
			t.Fatalf("%s: a sum of zero terms is not ∞", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: scalars past the table accepted", name)
				}
			}()
			wide.MultiExp(scalars, 1)
		}()
	}
}

// FuzzMultiExpTable differentially fuzzes the wide table's evaluation and
// the limb recoding: the input bytes become up to six scalars of any size
// (reduced mod r by MultiExp, recoded unreduced against the big.Int
// recoding) and an offset into a fixed table with one identity base.
func FuzzMultiExpTable(f *testing.F) {
	f.Add(byte(0), []byte{1})
	f.Add(byte(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(2), make([]byte, 60))
	f.Add(byte(0), []byte("r is 1208925819614637764640769, so 80 bits of ones go over it"))
	q, _ := new(big.Int).SetString(fastPathParams[0].q, 10)
	r, _ := new(big.Int).SetString(fastPathParams[0].r, 10)
	h, _ := new(big.Int).SetString(fastPathParams[0].h, 10)
	fld, err := ff.NewField(q)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewCurve(fld, r, h)
	if err != nil {
		f.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(5))
	points := make([]*Point, 8)
	for i := range points {
		if points[i], err = c.RandPoint(rng); err != nil {
			f.Fatal(err)
		}
	}
	points[5] = c.Infinity()
	tab := c.NewMultiExpTable(points)
	f.Fuzz(func(t *testing.T, off byte, data []byte) {
		offset := int(off % 3)
		var scalars []*big.Int
		for len(data) > 0 && len(scalars) < len(points)-offset {
			n := int(data[0])%40 + 1
			data = data[1:]
			n = min(n, len(data))
			k := new(big.Int).SetBytes(data[:n])
			data = data[n:]
			if k.Sign() > 0 {
				w := uint(2 + len(scalars)%7)
				if got, want := wnafDigits(k, w), wnafDigitsReference(k, w); string(int8Bytes(got)) != string(int8Bytes(want)) {
					t.Fatalf("w=%d, k=%x: limb recoding %v, big.Int recoding %v", w, k, got, want)
				}
			}
			scalars = append(scalars, k)
		}
		want := c.Marshal(naiveMultiExp(c, points[offset:], scalars))
		if got := c.Marshal(tab.MultiExp(scalars, offset)); string(got) != string(want) {
			t.Fatalf("offset %d, scalars %v: table diverges from the binary ladder", offset, scalars)
		}
	})
}
