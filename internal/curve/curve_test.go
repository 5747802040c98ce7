package curve

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// Small Type-A style parameters for fast tests (generated with the same
// procedure as cmd/paramgen): r = 2^20+2^10+1 prime? Use a tiny verified set.
// q = h·r − 1 must be prime ≡ 3 mod 4 with h ≡ 0 mod 4.
//
// r = 1048583 (prime), h = 40 → q = 41943319 prime? Instead of guessing, the
// constants below were produced by the generator in pairing.Generate and are
// re-validated in TestParamsSane.
const (
	tq = "730750818665456651398749912681464433149468475431"
	tr = "1208925819614637764640769"
	th = "604462909807314587353128"
)

func testCurve(t *testing.T) *Curve {
	t.Helper()
	q, _ := new(big.Int).SetString(tq, 10)
	r, _ := new(big.Int).SetString(tr, 10)
	h, _ := new(big.Int).SetString(th, 10)
	f, err := ff.NewField(q)
	if err != nil {
		t.Fatalf("NewField: %v", err)
	}
	c, err := NewCurve(f, r, h)
	if err != nil {
		t.Fatalf("NewCurve: %v", err)
	}
	return c
}

func randG1(t *testing.T, c *Curve) *Point {
	t.Helper()
	p, err := c.RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("RandPoint: %v", err)
	}
	return p
}

func TestParamsSane(t *testing.T) {
	c := testCurve(t)
	qPlus1 := new(big.Int).Add(c.F.P(), big.NewInt(1))
	if new(big.Int).Mul(c.R, c.Cofactor).Cmp(qPlus1) != 0 {
		t.Fatal("r·h ≠ q+1")
	}
	if !c.R.ProbablyPrime(30) {
		t.Fatal("r not prime")
	}
}

func TestNewCurveRejectsBadOrder(t *testing.T) {
	c := testCurve(t)
	if _, err := NewCurve(c.F, c.R, new(big.Int).Add(c.Cofactor, big.NewInt(1))); err == nil {
		t.Fatal("NewCurve accepted r·h ≠ q+1")
	}
	if _, err := NewCurve(nil, c.R, c.Cofactor); err == nil {
		t.Fatal("NewCurve accepted nil field")
	}
}

func TestRandPointOnCurveAndInSubgroup(t *testing.T) {
	c := testCurve(t)
	for i := 0; i < 10; i++ {
		p := randG1(t, c)
		if !c.IsOnCurve(p) {
			t.Fatal("random point off curve")
		}
		if !c.InSubgroup(p) {
			t.Fatal("random point outside order-r subgroup")
		}
	}
}

func TestAdditionGroupLaws(t *testing.T) {
	c := testCurve(t)
	p, q, s := randG1(t, c), randG1(t, c), randG1(t, c)

	if !c.Equal(c.Add(p, q), c.Add(q, p)) {
		t.Fatal("addition not commutative")
	}
	if !c.Equal(c.Add(c.Add(p, q), s), c.Add(p, c.Add(q, s))) {
		t.Fatal("addition not associative")
	}
	if !c.Equal(c.Add(p, c.Infinity()), p) {
		t.Fatal("p + ∞ ≠ p")
	}
	if !c.Add(p, c.Neg(p)).Inf {
		t.Fatal("p + (−p) ≠ ∞")
	}
}

func TestDoubleMatchesAdd(t *testing.T) {
	c := testCurve(t)
	for i := 0; i < 10; i++ {
		p := randG1(t, c)
		if !c.Equal(c.Double(p), c.Add(p, p)) {
			t.Fatal("Double ≠ Add(p,p)")
		}
	}
}

func TestScalarMultMatchesRepeatedAdd(t *testing.T) {
	c := testCurve(t)
	p := randG1(t, c)
	acc := c.Infinity()
	for k := 0; k <= 25; k++ {
		got := c.ScalarMult(p, big.NewInt(int64(k)))
		if !c.Equal(got, acc) {
			t.Fatalf("ScalarMult(p, %d) mismatch", k)
		}
		acc = c.Add(acc, p)
	}
}

func TestScalarMultNegative(t *testing.T) {
	c := testCurve(t)
	p := randG1(t, c)
	got := c.ScalarMult(p, big.NewInt(-7))
	want := c.Neg(c.ScalarMult(p, big.NewInt(7)))
	if !c.Equal(got, want) {
		t.Fatal("(−k)·p ≠ −(k·p)")
	}
}

func TestScalarMultDistributive(t *testing.T) {
	c := testCurve(t)
	src := mrand.New(mrand.NewSource(3))
	p := randG1(t, c)
	for i := 0; i < 10; i++ {
		a := new(big.Int).Rand(src, c.R)
		b := new(big.Int).Rand(src, c.R)
		lhs := c.ScalarMult(p, new(big.Int).Add(a, b))
		rhs := c.Add(c.ScalarMult(p, a), c.ScalarMult(p, b))
		if !c.Equal(lhs, rhs) {
			t.Fatal("(a+b)p ≠ ap + bp")
		}
	}
}

func TestScalarMultComposition(t *testing.T) {
	c := testCurve(t)
	src := mrand.New(mrand.NewSource(4))
	p := randG1(t, c)
	a := new(big.Int).Rand(src, c.R)
	b := new(big.Int).Rand(src, c.R)
	lhs := c.ScalarMult(c.ScalarMult(p, a), b)
	rhs := c.ScalarMult(p, new(big.Int).Mul(a, b))
	if !c.Equal(lhs, rhs) {
		t.Fatal("b(ap) ≠ (ab)p")
	}
}

func TestSubgroupOrderAnnihilates(t *testing.T) {
	c := testCurve(t)
	p := randG1(t, c)
	if !c.ScalarMult(p, c.R).Inf {
		t.Fatal("r·p ≠ ∞ for subgroup point")
	}
}

func TestScalarMultReduced(t *testing.T) {
	c := testCurve(t)
	p := randG1(t, c)
	k := new(big.Int).Add(c.R, big.NewInt(5))
	if !c.Equal(c.ScalarMultReduced(p, k), c.ScalarMult(p, big.NewInt(5))) {
		t.Fatal("reduction mod r incorrect")
	}
}

func TestHashToPointDeterministic(t *testing.T) {
	c := testCurve(t)
	p1, err := c.HashToPoint([]byte("alice@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.HashToPoint([]byte("alice@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(p1, p2) {
		t.Fatal("HashToPoint not deterministic")
	}
	p3, err := c.HashToPoint([]byte("bob@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Equal(p1, p3) {
		t.Fatal("distinct identities mapped to the same point")
	}
	if !c.InSubgroup(p1) || !c.InSubgroup(p3) {
		t.Fatal("hashed point outside subgroup")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := testCurve(t)
	for i := 0; i < 10; i++ {
		p := randG1(t, c)
		enc := c.Marshal(p)
		if len(enc) != c.PointLen() {
			t.Fatalf("encoding width %d, want %d", len(enc), c.PointLen())
		}
		back, err := c.Unmarshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Equal(p, back) {
			t.Fatal("round trip changed point")
		}
	}
}

func TestMarshalInfinity(t *testing.T) {
	c := testCurve(t)
	enc := c.Marshal(c.Infinity())
	p, err := c.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Inf {
		t.Fatal("infinity did not round trip")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	c := testCurve(t)
	if _, err := c.Unmarshal([]byte{1, 2, 3}); !errors.Is(err, ErrBadEncoding) {
		t.Fatal("short encoding accepted")
	}
	bad := make([]byte, c.PointLen())
	bad[len(bad)-1] = 1 // (0, 1) is not on y² = x³ + x
	if _, err := c.Unmarshal(bad); !errors.Is(err, ErrNotOnCurve) {
		t.Fatalf("off-curve point accepted: %v", err)
	}
}

// unmarshalReference is Unmarshal as it was before its checks moved to the
// limbs: big.Int decoding, then NewPoint's big.Int curve equation. It stays
// as FuzzPointUnmarshal's reference.
func unmarshalReference(c *Curve, b []byte) (*Point, error) {
	w := c.F.ByteLen()
	if len(b) != 2*w {
		return nil, ErrBadEncoding
	}
	if new(big.Int).SetBytes(b).Sign() == 0 {
		return c.Infinity(), nil
	}
	x, err := c.F.FromBytes(b[:w])
	if err != nil {
		return nil, err
	}
	y, err := c.F.FromBytes(b[w:])
	if err != nil {
		return nil, err
	}
	return c.NewPoint(x, y)
}

// FuzzPointUnmarshal: on all three built-in widths, Unmarshal accepts exactly
// the encodings the big.Int reference accepts, rejects the others for the
// same reason (bad encoding or off the curve), and decodes to the same point.
// The fuzzed bytes go in as they are and fitted to the point width (left
// padded with zeros or cut to their last bytes), so both the length check and
// the coordinate checks see fuzzed input.
func FuzzPointUnmarshal(f *testing.F) {
	curves := fastPathCurves(f)
	names := make([]string, len(fastPathParams))
	for i, p := range fastPathParams {
		names[i] = p.name
	}
	rng := mrand.New(mrand.NewSource(11))
	for sel, name := range names {
		c := curves[name]
		w := c.F.ByteLen()
		p := c.F.P()
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		top := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(8*w)), big.NewInt(1)) // 2^(8w) − 1: 2⁵¹² − 1 at type-a-512
		enc := func(x, y *big.Int) []byte {
			out := make([]byte, 2*w)
			x.FillBytes(out[:w])
			y.FillBytes(out[w:])
			return out
		}
		g, err := c.RandPoint(rng)
		if err != nil {
			f.Fatal(err)
		}
		off := curvePointOffG1(f, c)
		zero, one := big.NewInt(0), big.NewInt(1)
		for _, seed := range [][]byte{
			c.Marshal(g),
			c.Marshal(c.Neg(g)),
			c.Marshal(off),       // on the curve, outside G1
			make([]byte, 2*w),    // the infinity encoding
			enc(zero, one),       // off the curve
			enc(g.X, pm1),        // off the curve, y = p − 1
			enc(pm1, g.Y),        // x = p − 1
			enc(p, g.Y),          // x = p: not canonical
			enc(g.X, p),          // y = p
			enc(top, g.Y),        // x = 2^(8w) − 1
			enc(g.X, top),        // y = 2^(8w) − 1
			c.Marshal(g)[:2*w-1], // one byte short
		} {
			f.Add(byte(sel), seed)
		}
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		c := curves[names[int(sel)%len(names)]]
		w := c.F.ByteLen()
		fitted := make([]byte, 2*w)
		if len(data) >= 2*w {
			copy(fitted, data[len(data)-2*w:])
		} else {
			copy(fitted[2*w-len(data):], data)
		}
		for _, b := range [][]byte{data, fitted} {
			got, err := c.Unmarshal(b)
			want, refErr := unmarshalReference(c, b)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("Unmarshal error %v, reference error %v on %x", err, refErr, b)
			}
			if err != nil {
				for _, kind := range []error{ErrBadEncoding, ff.ErrBadEncoding, ErrNotOnCurve} {
					if errors.Is(err, kind) != errors.Is(refErr, kind) {
						t.Fatalf("Unmarshal error %v, reference error %v on %x", err, refErr, b)
					}
				}
				continue
			}
			if got.Inf != want.Inf || !c.Equal(got, want) {
				t.Fatalf("Unmarshal gives %v, the reference %v on %x", got, want, b)
			}
			if !got.Inf && (!c.F.IsCanonical(got.X) || !c.F.IsCanonical(got.Y)) {
				t.Fatalf("Unmarshal returned unreduced coordinates on %x", b)
			}
		}
	})
}

func TestNewPointValidates(t *testing.T) {
	c := testCurve(t)
	if _, err := c.NewPoint(big.NewInt(0), big.NewInt(1)); !errors.Is(err, ErrNotOnCurve) {
		t.Fatal("NewPoint accepted off-curve coordinates")
	}
	// (0,0) satisfies y² = x³ + x and is the order-2 point.
	p, err := c.NewPoint(big.NewInt(0), big.NewInt(0))
	if err != nil {
		t.Fatalf("NewPoint(0,0): %v", err)
	}
	if !c.Double(p).Inf {
		t.Fatal("(0,0) should have order 2")
	}
}

func TestClearCofactor(t *testing.T) {
	c := testCurve(t)
	// Build an arbitrary curve point by try-and-increment without clearing.
	f := c.F
	x := big.NewInt(2)
	var p *Point
	for {
		t3 := f.Add(f.Mul(f.Sqr(x), x), x)
		if y, err := f.Sqrt(t3); err == nil {
			p = &Point{X: new(big.Int).Set(x), Y: y}
			break
		}
		x.Add(x, big.NewInt(1))
	}
	g := c.ClearCofactor(p)
	if !g.Inf && !c.InSubgroup(g) {
		t.Fatal("cofactor clearing failed")
	}
}

func TestNegInfinity(t *testing.T) {
	c := testCurve(t)
	if !c.Neg(c.Infinity()).Inf {
		t.Fatal("−∞ ≠ ∞")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := testCurve(t)
	p := randG1(t, c)
	q := p.Clone()
	q.X.SetInt64(0)
	if p.X.Sign() == 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestRandScalarRange(t *testing.T) {
	c := testCurve(t)
	for i := 0; i < 20; i++ {
		k, err := c.RandScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if k.Sign() <= 0 || k.Cmp(c.R) >= 0 {
			t.Fatalf("scalar out of range: %v", k)
		}
	}
}

func TestScalarMultZeroAndInfinity(t *testing.T) {
	c := testCurve(t)
	p := randG1(t, c)
	if !c.ScalarMult(p, big.NewInt(0)).Inf {
		t.Fatal("0·p ≠ ∞")
	}
	if !c.ScalarMult(c.Infinity(), big.NewInt(12345)).Inf {
		t.Fatal("k·∞ ≠ ∞")
	}
}
