package curve

import (
	"math/big"
	"testing"
)

// curvePointOffG1 returns a curve point outside G1 (found by walking x from
// 1), so tables and walks see a point whose multiples can leave the
// subgroup.
func curvePointOffG1(t testing.TB, c *Curve) *Point {
	t.Helper()
	f := c.F
	for x := int64(1); x < 1000; x++ {
		bx := big.NewInt(x)
		y, err := f.Sqrt(f.Add(f.Mul(f.Sqr(bx), bx), bx))
		if err != nil {
			continue
		}
		p := &Point{X: bx, Y: y}
		if !c.InSubgroup(p) {
			return p
		}
	}
	t.Fatal("no off-subgroup point with x < 1000")
	return nil
}

// TestMontOddMultiplesMatchBigInt pins every entry (2i+1)·P of the
// limb-domain per-call table against the binary reference ladder, on a G1
// point, a point off G1 and the order-2 point (0, 0), whose odd multiples
// are all (0, 0) again.
func TestMontOddMultiplesMatchBigInt(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		m := c.mont()
		g, err := c.HashToPoint([]byte(name))
		if err != nil {
			t.Fatal(err)
		}
		pts := map[string]*Point{
			"G1":     g,
			"off-G1": curvePointOffG1(t, c),
			"order2": {X: big.NewInt(0), Y: big.NewInt(0)},
		}
		for pname, p := range pts {
			for _, n := range []int{1, 1 << (scalarWindow - 2), 1 << (ctWindow - 1)} {
				got := c.montOddMultiples(m, p, n)
				for i := range got {
					want := c.ScalarMultBinary(p, big.NewInt(int64(2*i+1)))
					if g := c.fromMontAffine(m, &got[i]); string(c.Marshal(g)) != string(c.Marshal(want)) {
						t.Fatalf("%s/%s: entry %d of %d = %v, want %v", name, pname, i, n, g, want)
					}
				}
			}
			for _, k := range []int64{1, 2, 3, 7, 1 << 20} {
				bk := big.NewInt(k)
				if got, want := c.ScalarMult(p, bk), c.ScalarMultBinary(p, bk); !c.Equal(got, want) {
					t.Fatalf("%s/%s: ScalarMult(%d) = %v, want %v", name, pname, k, got, want)
				}
			}
		}
	}
}

// TestScalarToLimbs checks the limb split against big.Int shifts, which is
// what catches a word-size assumption on 32-bit builds.
func TestScalarToLimbs(t *testing.T) {
	mask := new(big.Int).SetUint64(^uint64(0))
	for _, s := range []string{"0", "1", "ffffffffffffffff", "10000000000000000", "123456789abcdef0fedcba9876543210ff"} {
		e, _ := new(big.Int).SetString(s, 16)
		limbs := scalarToLimbs(e, 3)
		for i, l := range limbs {
			want := new(big.Int).And(new(big.Int).Rsh(e, uint(64*i)), mask).Uint64()
			if l != want {
				t.Fatalf("scalarToLimbs(%s)[%d] = %#x, want %#x", s, i, l, want)
			}
		}
	}
}
