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
// parameter set: edge scalars (nil, 0, 1, r − 1, r, > r), an identity base,
// and shifted offsets as Decrypt uses them.
func TestMultiExpTableMatchesScalarMultBinary(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		rng := mrand.New(mrand.NewSource(11))
		const n = 40 // ≥ 32 scalars: the parallel bucket reduction
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

// TestMultiExpTableRepeatedAndOpposedBases pins the table against the binary
// ladder when bases repeat and negate each other (P, P, −P, ∞) under equal
// and opposite scalars, so the batched affine additions meet x₁ = x₂ both
// ways: equal points (a doubling) and opposite ones (the identity). Two-base
// tables with equal scalars put exactly one point of each base in every
// digit position, so every bucket pair is such a pair; the 2-torsion point
// (0, 0) doubles to the identity while its row is built.
func TestMultiExpTableRepeatedAndOpposedBases(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		rng := mrand.New(mrand.NewSource(29))
		p, err := c.RandPoint(rng)
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.RandPoint(rng)
		if err != nil {
			t.Fatal(err)
		}
		np, inf := c.Neg(p), c.Infinity()
		tors := &Point{X: big.NewInt(0), Y: big.NewInt(0)}
		k := new(big.Int).Rand(rng, c.R)
		negK := new(big.Int).Sub(c.R, k)
		type multiExpCase struct {
			label   string
			points  []*Point
			scalars []*big.Int
		}
		cases := []multiExpCase{
			{"P, P equal", []*Point{p, p}, []*big.Int{k, k}},
			{"P, −P equal", []*Point{p, np}, []*big.Int{k, k}},
			{"P, P opposite", []*Point{p, p}, []*big.Int{k, negK}},
			{"P, −P opposite", []*Point{p, np}, []*big.Int{k, negK}},
			{"P, P, −P, ∞", []*Point{p, p, np, inf}, []*big.Int{k, k, k, k}},
			{"2-torsion", []*Point{tors, p, tors}, []*big.Int{big.NewInt(3), k, big.NewInt(5)}},
		}
		// Forty bases in repeating blocks, so the parallel bucket reduction
		// meets repeated and opposed points too.
		var points []*Point
		var scalars []*big.Int
		for len(points) < 40 {
			j := new(big.Int).Rand(rng, c.R)
			points = append(points, p, p, np, inf, q, q, c.Neg(q), c.Add(p, p))
			scalars = append(scalars, k, k, k, big.NewInt(5), j, new(big.Int).Sub(c.R, j), j, k)
		}
		cases = append(cases, multiExpCase{"40 blocks", points, scalars})
		for _, tc := range cases {
			want := c.Marshal(naiveMultiExp(c, tc.points, tc.scalars))
			if got := c.Marshal(c.NewMultiExpTable(tc.points).MultiExp(tc.scalars, 0)); string(got) != string(want) {
				t.Fatalf("%s, %s: table diverges from the binary ladder", name, tc.label)
			}
			if got := c.Marshal(c.MultiExp(tc.points, tc.scalars)); string(got) != string(want) {
				t.Fatalf("%s, %s: one-shot MultiExp diverges from the binary ladder", name, tc.label)
			}
		}
	}
}

// TestMontBatchAddMatchesAdd runs one batch holding every case of the
// batched affine addition — distinct points, a doubling, opposite points, a
// 2-torsion doubling, identity operands, a pair writing over its own operand
// — against Curve.Add.
func TestMontBatchAddMatchesAdd(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		m := c.mont()
		rng := mrand.New(mrand.NewSource(31))
		p, _ := c.RandPoint(rng)
		q, _ := c.RandPoint(rng)
		inf := c.Infinity()
		tors := &Point{X: big.NewInt(0), Y: big.NewInt(0)}
		in := []*Point{p, q, p, c.Neg(p), tors, tors, inf, p, q, inf, inf, inf, q, p}
		pts := make([]montAffine, len(in)+len(in)/2)
		for i, pt := range in {
			pts[i] = toMontAffine(m, pt)
		}
		var pairs []addPair
		for i := 0; i+1 < len(in); i += 2 {
			dst := int32(len(in) + i/2)
			if i == len(in)-2 {
				dst = int32(i) // the last pair overwrites its own a
			}
			pairs = append(pairs, addPair{dst: dst, a: int32(i), b: int32(i + 1)})
		}
		before := ff.InvOps()
		c.montBatchAdd(m, pts, pairs, new(bucketScratch))
		if n := ff.InvOps() - before; n != 1 {
			t.Fatalf("%s: batch spent %d inversions, want 1", name, n)
		}
		for _, pr := range pairs {
			want := c.Add(in[pr.a], in[pr.b])
			got := c.Infinity()
			if a := pts[pr.dst]; !a.inf {
				got = &Point{X: m.ToBig(&a.x), Y: m.ToBig(&a.y)}
			}
			if !c.Equal(got, want) {
				t.Fatalf("%s: pair %d: batched %v + %v = %v, want %v", name, pr.a/2, in[pr.a], in[pr.b], got, want)
			}
		}
	}
}

// FuzzMultiExpTable differentially fuzzes the wide table's evaluation and
// the limb recoding: the input bytes become up to eight scalars of any size
// (reduced mod r by MultiExp, recoded unreduced against the big.Int
// recoding) and an offset into a fixed table whose bases come from a small
// pool — two points, their negations, the identity — so equal scalars land
// equal and opposite points in the same digit positions.
func FuzzMultiExpTable(f *testing.F) {
	f.Add(byte(0), []byte{1})
	f.Add(byte(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(2), make([]byte, 60))
	f.Add(byte(0), []byte("r is 1208925819614637764640769, so 80 bits of ones go over it"))
	f.Add(byte(0), []byte{4, 1, 2, 3, 4, 4, 1, 2, 3, 4, 4, 1, 2, 3, 4, 4, 1, 2, 3, 4})
	f.Add(byte(1), []byte{9, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 0x01, 9, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe, 0x01})
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
	var pool [2]*Point
	for i := range pool {
		if pool[i], err = c.RandPoint(rng); err != nil {
			f.Fatal(err)
		}
	}
	p0, p1 := pool[0], pool[1]
	points := []*Point{p0, p0, c.Neg(p0), p1, c.Neg(p1), c.Infinity(), p1, c.Neg(p0)}
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
