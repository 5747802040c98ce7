package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/curve"
)

func params(t *testing.T) *Params {
	t.Helper()
	return TypeA160()
}

func randG1(t *testing.T, p *Params) *curve.Point {
	t.Helper()
	pt, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		t.Fatalf("RandPoint: %v", err)
	}
	return pt
}

func TestBuiltinParamsRelations(t *testing.T) {
	for _, p := range []*Params{TypeA160(), TypeA256()} {
		qPlus1 := new(big.Int).Add(p.Q, big.NewInt(1))
		if new(big.Int).Mul(p.R, p.H).Cmp(qPlus1) != 0 {
			t.Fatalf("%s: r·h ≠ q+1", p.Name())
		}
		if new(big.Int).Mod(p.Q, big.NewInt(4)).Int64() != 3 {
			t.Fatalf("%s: q ≢ 3 (mod 4)", p.Name())
		}
		if !p.Q.ProbablyPrime(20) || !p.R.ProbablyPrime(20) {
			t.Fatalf("%s: q or r not prime", p.Name())
		}
	}
}

func TestTypeA512Loads(t *testing.T) {
	if testing.Short() {
		t.Skip("512-bit primality checks are slow")
	}
	p := TypeA512()
	// The standard PBC a.param order: 2^159 + 2^107 + 1.
	want := new(big.Int).Lsh(big.NewInt(1), 159)
	want.Add(want, new(big.Int).Lsh(big.NewInt(1), 107))
	want.Add(want, big.NewInt(1))
	if p.R.Cmp(want) != 0 {
		t.Fatal("TypeA512 r is not the PBC a.param Solinas prime")
	}
	if p.G1.PointLen() != 128 {
		t.Fatalf("TypeA512 point length = %d, want 128 (paper's 256-byte 2-point ciphertext)", p.G1.PointLen())
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	p := params(t)
	P := randG1(t, p)
	Q := randG1(t, p)
	e := p.Pair(P, Q)
	if p.GTIsOne(e) {
		t.Fatal("pairing of random subgroup points is degenerate")
	}
	if !p.InGT(e) {
		t.Fatal("pairing output not of order dividing r")
	}
}

func TestPairingBilinearLeft(t *testing.T) {
	p := params(t)
	P, Q := randG1(t, p), randG1(t, p)
	a, err := p.G1.RandScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	lhs := p.Pair(p.G1.ScalarMult(P, a), Q)
	rhs := p.GTExp(p.Pair(P, Q), a)
	if !p.GTEqual(lhs, rhs) {
		t.Fatal("e(aP, Q) ≠ e(P, Q)^a")
	}
}

func TestPairingBilinearRight(t *testing.T) {
	p := params(t)
	P, Q := randG1(t, p), randG1(t, p)
	b, err := p.G1.RandScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	lhs := p.Pair(P, p.G1.ScalarMult(Q, b))
	rhs := p.GTExp(p.Pair(P, Q), b)
	if !p.GTEqual(lhs, rhs) {
		t.Fatal("e(P, bQ) ≠ e(P, Q)^b")
	}
}

func TestPairingBilinearBoth(t *testing.T) {
	p := params(t)
	P, Q := randG1(t, p), randG1(t, p)
	a, _ := p.G1.RandScalar(rand.Reader)
	b, _ := p.G1.RandScalar(rand.Reader)
	lhs := p.Pair(p.G1.ScalarMult(P, a), p.G1.ScalarMult(Q, b))
	ab := new(big.Int).Mul(a, b)
	rhs := p.GTExp(p.Pair(P, Q), ab)
	if !p.GTEqual(lhs, rhs) {
		t.Fatal("e(aP, bQ) ≠ e(P, Q)^(ab)")
	}
}

func TestPairingAdditiveInFirstArgument(t *testing.T) {
	p := params(t)
	P1, P2, Q := randG1(t, p), randG1(t, p), randG1(t, p)
	lhs := p.Pair(p.G1.Add(P1, P2), Q)
	rhs := p.GTMul(p.Pair(P1, Q), p.Pair(P2, Q))
	if !p.GTEqual(lhs, rhs) {
		t.Fatal("e(P1+P2, Q) ≠ e(P1,Q)·e(P2,Q)")
	}
}

func TestPairingWithInfinity(t *testing.T) {
	p := params(t)
	P := randG1(t, p)
	if !p.GTIsOne(p.Pair(P, p.G1.Infinity())) {
		t.Fatal("e(P, ∞) ≠ 1")
	}
	if !p.GTIsOne(p.Pair(p.G1.Infinity(), P)) {
		t.Fatal("e(∞, P) ≠ 1")
	}
}

func TestPairingSelfNonDegenerate(t *testing.T) {
	// The distortion map guarantees e(P, P) ≠ 1 on a supersingular curve —
	// exactly why the symmetric Type-A pairing works.
	p := params(t)
	P := randG1(t, p)
	if p.GTIsOne(p.Pair(P, P)) {
		t.Fatal("e(P, P) = 1; distortion map broken")
	}
}

func TestPairingNegation(t *testing.T) {
	p := params(t)
	P, Q := randG1(t, p), randG1(t, p)
	e1 := p.Pair(p.G1.Neg(P), Q)
	e2 := p.GTInv(p.Pair(P, Q))
	if !p.GTEqual(e1, e2) {
		t.Fatal("e(−P, Q) ≠ e(P, Q)^−1")
	}
}

func TestGTOps(t *testing.T) {
	p := params(t)
	P, Q := randG1(t, p), randG1(t, p)
	e := p.Pair(P, Q)

	if !p.GTEqual(p.GTMul(e, p.GTOne()), e) {
		t.Fatal("e · 1 ≠ e")
	}
	if !p.GTIsOne(p.GTMul(e, p.GTInv(e))) {
		t.Fatal("e · e⁻¹ ≠ 1")
	}
	if !p.GTIsOne(p.GTExp(e, p.R)) {
		t.Fatal("e^r ≠ 1")
	}
	if !p.GTEqual(p.GTExp(e, big.NewInt(0)), p.GTOne()) {
		t.Fatal("e^0 ≠ 1")
	}
	// Exponent reduction: e^(r+3) = e^3.
	if !p.GTEqual(p.GTExp(e, new(big.Int).Add(p.R, big.NewInt(3))), p.GTExp(e, big.NewInt(3))) {
		t.Fatal("GT exponent not reduced mod r")
	}
}

func TestGTMarshalRoundTrip(t *testing.T) {
	p := params(t)
	e := p.Pair(randG1(t, p), randG1(t, p))
	enc := p.GTMarshal(e)
	if len(enc) != p.GTLen() {
		t.Fatalf("GT encoding width %d, want %d", len(enc), p.GTLen())
	}
	back, err := p.GTUnmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.GTEqual(e, back) {
		t.Fatal("GT round trip changed value")
	}
	if _, err := p.GTUnmarshal([]byte{1}); err == nil {
		t.Fatal("short GT encoding accepted")
	}
}

func TestGTHashStable(t *testing.T) {
	p := params(t)
	P, Q := randG1(t, p), randG1(t, p)
	e := p.Pair(P, Q)
	h1 := p.GTHash(e)
	h2 := p.GTHash(e)
	if h1 != h2 {
		t.Fatal("GTHash not deterministic")
	}
	other := p.GTHash(p.GTExp(e, big.NewInt(2)))
	if h1 == other {
		t.Fatal("distinct GT elements hashed equal")
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(10, 20, 64); err == nil {
		t.Fatal("Generate accepted expHigh < expLow")
	}
	if _, err := Generate(80, 33, 60); err == nil {
		t.Fatal("Generate accepted qBits < rBits")
	}
	if _, err := Generate(82, 30, 160); err == nil {
		t.Fatal("Generate accepted composite r") // 2^82+2^30+1 divisible by small prime
	}
}

func TestGenerateSmall(t *testing.T) {
	p, err := Generate(80, 33, 120)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	Q, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.G1.RandScalar(rand.Reader)
	lhs := p.Pair(p.G1.ScalarMult(P, a), Q)
	rhs := p.GTExp(p.Pair(P, Q), a)
	if !p.GTEqual(lhs, rhs) {
		t.Fatal("generated parameters fail bilinearity")
	}
}

func TestByName(t *testing.T) {
	if ByName("type-a-160") != TypeA160() {
		t.Fatal("ByName lookup failed")
	}
	for _, name := range []string{"type-a-160", "type-a-256", "type-a-512"} {
		p := ByName(name)
		if p == nil || p.Name() != name {
			t.Fatalf("ByName(%q) = %v", name, p)
		}
		if p.F.Mont() == nil || p.Zr.Mont() == nil {
			t.Fatalf("%s: a field without a limb core", name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName returned params for unknown name")
	}
}

func TestByScale(t *testing.T) {
	for scale, want := range map[string]*Params{
		"": TypeA160(), "fast-160": TypeA160(), "medium-256": TypeA256(), "paper-512": TypeA512(),
	} {
		if p, err := ByScale(scale); err != nil || p != want {
			t.Fatalf("ByScale(%q) = %v, %v; want %s", scale, p, err, want.Name())
		}
	}
	for _, scale := range []string{"type-a-160", "quantum-9000"} {
		if _, err := ByScale(scale); err == nil {
			t.Fatalf("ByScale(%q) accepted", scale)
		}
	}
}
