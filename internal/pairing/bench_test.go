package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/curve"
)

// Microbenchmarks for the pairing substrate — the primitive costs that set
// every constant in the paper's figures (a pairing evaluation, a G1
// exponentiation, a GT exponentiation).

func benchParams(b *testing.B) *Params {
	b.Helper()
	return TypeA160()
}

func BenchmarkPairing(b *testing.B) {
	p := benchParams(b)
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	Q, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pair(P, Q)
	}
}

func BenchmarkG1ScalarMult(b *testing.B) {
	p := benchParams(b)
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	k, err := p.G1.RandScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.G1.ScalarMult(P, k)
	}
}

func BenchmarkG1ScalarMultBinary(b *testing.B) {
	p := benchParams(b)
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	k, err := p.G1.RandScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.G1.ScalarMultBinary(P, k)
	}
}

func BenchmarkG1FixedBaseMul(b *testing.B) {
	p := benchParams(b)
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	k, err := p.G1.RandScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	fb := p.G1.NewFixedBase(P)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Mul(k)
	}
}

func BenchmarkGTExp(b *testing.B) {
	p := benchParams(b)
	P, _ := p.G1.RandPoint(rand.Reader)
	Q, _ := p.G1.RandPoint(rand.Reader)
	e := p.Pair(P, Q)
	k, _ := p.G1.RandScalar(rand.Reader)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GTExp(e, k)
	}
}

func BenchmarkGTExpBinary(b *testing.B) {
	p := benchParams(b)
	P, _ := p.G1.RandPoint(rand.Reader)
	Q, _ := p.G1.RandPoint(rand.Reader)
	e := p.Pair(P, Q)
	k, _ := p.G1.RandScalar(rand.Reader)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GTExpBinary(e, k)
	}
}

func BenchmarkGTFixedBaseExp(b *testing.B) {
	p := benchParams(b)
	P, _ := p.G1.RandPoint(rand.Reader)
	Q, _ := p.G1.RandPoint(rand.Reader)
	e := p.Pair(P, Q)
	k, _ := p.G1.RandScalar(rand.Reader)
	t := p.NewGTFixedBase(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Exp(k)
	}
}

func BenchmarkHashToPoint(b *testing.B) {
	p := benchParams(b)
	msg := []byte("user@example.com")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.G1.HashToPoint(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPairing512(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale parameters")
	}
	p := TypeA512()
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	Q, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Pair(P, Q)
	}
}

// BenchmarkG1ScalarMult512 is the variable-base G1 exponentiation at the
// paper width — AddUsers' C2^e and C3^e, RemoveUsers' C3^{1/e} — the only
// width the 8-limb field kernels run at (the benchmarks above use type-a-160).
func BenchmarkG1ScalarMult512(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale parameters")
	}
	p := TypeA512()
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	k, err := p.G1.RandScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		p.G1.ScalarMultReduced(P, k)
	}
}

// BenchmarkG1FixedBase512 is the fixed-base G1 exponentiation at the paper
// width: the constant-time signed-window walk every membership op's header
// takes. Compare with BenchmarkG1ScalarMult512, the variable-base walk the
// ops used before.
func BenchmarkG1FixedBase512(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale parameters")
	}
	p := TypeA512()
	P, err := p.G1.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	k, err := p.G1.RandScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	fb := p.G1.NewFixedBase(P)
	b.ReportAllocs()
	for b.Loop() {
		fb.Mul(k)
	}
}

// BenchmarkMulConstTimeEach512 is a removal's header batch at the paper
// width: three secret exponents on the constant-time fixed-base walk, two on
// h's table and one on w's, brought to affine by one blinded inversion.
func BenchmarkMulConstTimeEach512(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale parameters")
	}
	p := TypeA512()
	var fbs []*curve.FixedBase
	var ks []*big.Int
	for i := 0; i < 2; i++ {
		P, err := p.G1.RandPoint(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		fbs = append(fbs, p.G1.NewFixedBase(P))
	}
	fbs = []*curve.FixedBase{fbs[0], fbs[0], fbs[1]}
	for range fbs {
		k, err := p.G1.RandScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, k)
	}
	b.ReportAllocs()
	for b.Loop() {
		p.G1.MulConstTimeEach(fbs, ks)
	}
}
