package curve

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// The three built-in Type-A parameter sets (duplicated from pairing/typea.go,
// which this package cannot import without a cycle). The differential tests
// below pin every windowed/table fast path against the binary reference
// ladder on all three, so a width- or carry-handling bug that only shows at
// one field size cannot hide.
var fastPathParams = []struct {
	name    string
	q, r, h string
}{
	{"type-a-160",
		"730750818665456651398749912681464433149468475431",
		"1208925819614637764640769",
		"604462909807314587353128"},
	{"type-a-256",
		"57896072225643484874040642243367403057748397788474512798884162776097072611791",
		"2658457259220431974037015617263894529",
		"21778071482940061661655974875633165533648"},
	{"type-a-512",
		"6703903964971300038352719856505834908754841464938657039583247695534712755109909758113385465279071810380322580453472515578975031231813880338207931866547659",
		"730750818665451621361119245571504901405976559617",
		"9173994463960286046443283581208347763186259956673124494950355357547691504353939232280074212440502746219980"},
}

func fastPathCurves(t testing.TB) map[string]*Curve {
	t.Helper()
	out := make(map[string]*Curve, len(fastPathParams))
	for _, p := range fastPathParams {
		q, _ := new(big.Int).SetString(p.q, 10)
		r, _ := new(big.Int).SetString(p.r, 10)
		h, _ := new(big.Int).SetString(p.h, 10)
		f, err := ff.NewField(q)
		if err != nil {
			t.Fatalf("%s: NewField: %v", p.name, err)
		}
		c, err := NewCurve(f, r, h)
		if err != nil {
			t.Fatalf("%s: NewCurve: %v", p.name, err)
		}
		out[p.name] = c
	}
	return out
}

// testScalars returns the adversarial scalar set every differential test
// sweeps: boundaries of the subgroup order, tiny values, negatives, and a
// batch of random draws (deterministic seed, so failures replay).
func testScalars(t *testing.T, c *Curve, n int) []*big.Int {
	t.Helper()
	rng := mrand.New(mrand.NewSource(20180625))
	ks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		big.NewInt(-5),
		new(big.Int).Sub(c.R, big.NewInt(1)),
		new(big.Int).Set(c.R),
		new(big.Int).Add(c.R, big.NewInt(7)),
	}
	for i := 0; i < n; i++ {
		k := new(big.Int).Rand(rng, c.R)
		ks = append(ks, k)
	}
	return ks
}

func TestScalarMultMatchesBinaryReference(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		for _, k := range testScalars(t, c, 20) {
			want := c.ScalarMultBinary(p, k)
			got := c.ScalarMult(p, k)
			if !c.Equal(got, want) {
				t.Fatalf("%s: ScalarMult(%v) diverges from binary ladder", name, k)
			}
			// Bit-identical, not just group-equal: the affine encoding is
			// what travels on the wire.
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: ScalarMult(%v) encoding differs", name, k)
			}
		}
		// Infinity in, infinity out.
		if !c.ScalarMult(c.Infinity(), big.NewInt(3)).Inf {
			t.Fatalf("%s: ScalarMult(∞) not ∞", name)
		}
	}
}

// fixedBaseScalars extends testScalars with the edges of the fixed-base
// walk's reduction and odd lift: 0 and r (lifted to r itself), r − 1 (odd
// already), r + 7 and r·2^70 (reduced first).
func fixedBaseScalars(t *testing.T, c *Curve, n int) []*big.Int {
	return append(testScalars(t, c, n), new(big.Int).Lsh(c.R, 70))
}

// TestFixedBaseMatchesScalarMultBinary pins FixedBase.Mul — the signed-window
// constant-time walk — against the binary ladder, bit for bit, on every
// parameter set; a table built for the identity gives the identity.
func TestFixedBaseMatchesScalarMultBinary(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		fb := c.NewFixedBase(p)
		for _, k := range fixedBaseScalars(t, c, 12) {
			// FixedBase has ScalarMultReduced semantics.
			want := c.ScalarMultBinary(p, new(big.Int).Mod(k, c.R))
			got := fb.Mul(k)
			if !c.Equal(got, want) || !want.Inf && string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: FixedBase.Mul(%v) diverges from the binary ladder", name, k)
			}
		}
		inf := c.NewFixedBase(c.Infinity())
		for _, k := range []*big.Int{big.NewInt(0), big.NewInt(9), c.R} {
			if !inf.Mul(k).Inf {
				t.Fatalf("%s: FixedBase(∞).Mul(%v) not ∞", name, k)
			}
		}
	}
}

func TestMultiExpMatchesNaiveLoop(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		const n = 9
		points := make([]*Point, n)
		for i := range points {
			p, err := c.RandPoint(rand.Reader)
			if err != nil {
				t.Fatalf("%s: RandPoint: %v", name, err)
			}
			points[i] = p
		}
		rng := mrand.New(mrand.NewSource(42))
		scalars := make([]*big.Int, n)
		for i := range scalars {
			scalars[i] = new(big.Int).Rand(rng, c.R)
		}
		scalars[2] = big.NewInt(0) // zero coefficients must be skipped
		scalars[5] = big.NewInt(1)

		naive := func(pts []*Point, ks []*big.Int) *Point {
			acc := c.Infinity()
			for i, k := range ks {
				if k.Sign() == 0 {
					continue
				}
				acc = c.Add(acc, c.ScalarMultBinary(pts[i], new(big.Int).Mod(k, c.R)))
			}
			return acc
		}

		got := c.MultiExp(points, scalars)
		want := naive(points, scalars)
		if string(c.Marshal(got)) != string(c.Marshal(want)) {
			t.Fatalf("%s: MultiExp diverges from naive loop", name)
		}

		// Offsets: the IBBE decrypt path evaluates coeffs[1:] against
		// HPowers[0:]; exercise the same shifted-window access.
		tab := c.NewMultiExpTable(points)
		for offset := 0; offset < 3; offset++ {
			sub := scalars[:n-offset]
			got := tab.MultiExp(sub, offset)
			want := naive(points[offset:], sub)
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: MultiExp(offset=%d) diverges", name, offset)
			}
		}

		// All-zero scalars sum to infinity.
		zeros := make([]*big.Int, n)
		for i := range zeros {
			zeros[i] = big.NewInt(0)
		}
		if !tab.MultiExp(zeros, 0).Inf {
			t.Fatalf("%s: MultiExp of zeros not ∞", name)
		}
	}
}

func TestScalarMultConstTimeMatchesBinaryReference(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		for _, k := range testScalars(t, c, 16) {
			kr := new(big.Int).Mod(k, c.R)
			want := c.ScalarMultBinary(p, kr)
			got := c.ScalarMultConstTime(p, k)
			if !c.Equal(got, want) {
				t.Fatalf("%s: ScalarMultConstTime(%v) diverges from binary ladder", name, k)
			}
			if !want.Inf && string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: ScalarMultConstTime(%v) encoding differs", name, k)
			}
		}
		if !c.ScalarMultConstTime(c.Infinity(), big.NewInt(3)).Inf {
			t.Fatalf("%s: ScalarMultConstTime(∞) not ∞", name)
		}
		// k ≡ 0 mod r lifts to the odd scalar r itself; the uniform walk must
		// still land on the identity.
		if !c.ScalarMultConstTime(p, new(big.Int).Set(c.R)).Inf {
			t.Fatalf("%s: ScalarMultConstTime(r) not ∞", name)
		}
	}
}

// TestFixedBaseMulConstTimeMatchesMul cross-checks the two walks a G1
// exponent can take: the fixed-base constant-time table (FixedBase.Mul,
// signed window 6) must agree bit for bit with the variable-time NAF chain
// (ScalarMultReduced) and with the per-call constant-time table
// (ScalarMultConstTime, window 4).
func TestFixedBaseMulConstTimeMatchesMul(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		fb := c.NewFixedBase(p)
		for _, k := range fixedBaseScalars(t, c, 16) {
			got := fb.Mul(k)
			for ref, want := range map[string]*Point{
				"ScalarMultReduced":   c.ScalarMultReduced(p, k),
				"ScalarMultConstTime": c.ScalarMultConstTime(p, k),
			} {
				if !c.Equal(got, want) {
					t.Fatalf("%s: FixedBase.Mul(%v) ≠ %s", name, k, ref)
				}
				if !want.Inf && string(c.Marshal(got)) != string(c.Marshal(want)) {
					t.Fatalf("%s: FixedBase.Mul(%v) encoding differs from %s", name, k, ref)
				}
			}
		}
	}
}

// MulConstTimeEach shares one normalisation across tables; each result must
// still be its base raised by the binary ladder, identities included.
func TestMulConstTimeEachMatchesScalarMultBinary(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		var fbs []*FixedBase
		for i := 0; i < 3; i++ {
			p, err := c.RandPoint(rand.Reader)
			if err != nil {
				t.Fatalf("%s: RandPoint: %v", name, err)
			}
			fbs = append(fbs, c.NewFixedBase(p))
		}
		fbs = append(fbs, c.NewFixedBase(c.Infinity()), fbs[0], fbs[1])
		all := fixedBaseScalars(t, c, 2*len(fbs))
		// Every edge scalar meets every base, and random ones meet r (≡ 0,
		// the identity) amid them.
		var batches [][]*big.Int
		for lo := range all {
			ks := make([]*big.Int, len(fbs))
			for i := range ks {
				ks[i] = all[(lo+i)%len(all)]
			}
			batches = append(batches, ks)
		}
		random := append([]*big.Int(nil), all[len(all)-len(fbs)-1:len(all)-1]...)
		random[1] = new(big.Int).Set(c.R)
		batches = append(batches, random)
		for _, ks := range batches {
			got := c.MulConstTimeEach(fbs, ks)
			for i, fb := range fbs {
				want := c.ScalarMultBinary(fb.Point(), new(big.Int).Mod(ks[i], c.R))
				if !c.Equal(got[i], want) || !want.Inf && string(c.Marshal(got[i])) != string(c.Marshal(want)) {
					t.Fatalf("%s: MulConstTimeEach[%d] (k = %v) diverges from the binary ladder", name, i, ks[i])
				}
			}
		}
	}
}

// TestCTRecodeReconstructsScalar checks the recoding at every window the
// constant-time walks could take: a fixed digit count, every digit odd and
// within ±(2^w − 1), and the digits summing to k modulo r.
func TestCTRecodeReconstructsScalar(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		for w := uint(2); w <= 7; w++ {
			nd := ctDigits(c.R.BitLen()+1, w)
			for _, k := range fixedBaseScalars(t, c, 24) {
				digits := ctRecode(k, c.R, w)
				if len(digits) != nd {
					t.Fatalf("%s/w=%d: digit count %d varies from fixed %d for k=%v",
						name, w, len(digits), nd, k)
				}
				sum := new(big.Int)
				for i, d := range digits {
					if d%2 == 0 || int(d) > (1<<w)-1 || int(d) < -((1<<w)-1) {
						t.Fatalf("%s/w=%d: digit %d = %d outside signed odd window", name, w, i, d)
					}
					sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(i)*w))
				}
				// The reconstruction equals k mod r (the lift adds a multiple of r).
				if new(big.Int).Mod(sum, c.R).Cmp(new(big.Int).Mod(k, c.R)) != 0 {
					t.Fatalf("%s/w=%d: ctRecode(%v) reconstructs to %v", name, w, k, sum)
				}
			}
		}
	}
}

// TestMultiExpParallelMatchesSerial pins the position-parallel bucket
// reduction against the serial one on a batch large enough to actually split, across
// several worker-pool bounds, including from concurrent callers.
func TestMultiExpParallelMatchesSerial(t *testing.T) {
	defer SetMaxParallelism(MaxParallelism())
	for name, c := range fastPathCurves(t) {
		const n = 96 // ≥ 32 scalars, so the bucket reduction splits
		points := make([]*Point, n)
		for i := range points {
			p, err := c.RandPoint(rand.Reader)
			if err != nil {
				t.Fatalf("%s: RandPoint: %v", name, err)
			}
			points[i] = p
		}
		rng := mrand.New(mrand.NewSource(77))
		scalars := make([]*big.Int, n)
		for i := range scalars {
			scalars[i] = new(big.Int).Rand(rng, c.R)
		}
		scalars[7] = big.NewInt(0)
		tab := c.NewMultiExpTable(points)

		SetMaxParallelism(1)
		want := tab.MultiExp(scalars, 0)
		for _, workers := range []int{2, 4, 8} {
			SetMaxParallelism(workers)
			got := tab.MultiExp(scalars, 0)
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: parallel MultiExp (workers=%d) diverges from serial", name, workers)
			}
		}

		// MulConstTimeEach across the same worker sweep.
		fb := c.NewFixedBase(points[0])
		fbs := make([]*FixedBase, n)
		for i := range fbs {
			fbs[i] = fb
		}
		SetMaxParallelism(1)
		wantEach := c.MulConstTimeEach(fbs, scalars)
		SetMaxParallelism(8)
		gotEach := c.MulConstTimeEach(fbs, scalars)
		for i := range wantEach {
			if !c.Equal(gotEach[i], wantEach[i]) {
				t.Fatalf("%s: parallel MulConstTimeEach[%d] diverges", name, i)
			}
		}

		// Concurrent callers share the table and the worker bound.
		SetMaxParallelism(4)
		done := make(chan *Point, 4)
		for g := 0; g < 4; g++ {
			go func() { done <- tab.MultiExp(scalars, 0) }()
		}
		for g := 0; g < 4; g++ {
			if got := <-done; string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: concurrent MultiExp diverges", name)
			}
		}
	}
}

// TestMontNormalizeMatchesFromJacobian pins the limb batch normalisation
// against the big.Int reference conversion, point by point: genuine Jacobian
// points (Z ≠ 1 from doubling and addition chains) mixed with identities in
// arbitrary positions, then the all-identity and empty batches.
func TestMontNormalizeMatchesFromJacobian(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		m := c.mont()
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		var pj, cur montJac
		pa := toMontAffine(m, p)
		pj.setAffine(m, &pa)
		cur = pj
		var js []montJac
		for i := 0; i < 12; i++ {
			if i%4 == 3 {
				var inf montJac
				inf.setInfinity(m)
				js = append(js, inf)
				continue
			}
			c.montDouble(m, &cur)
			js = append(js, cur)
			c.montAdd(m, &cur, &pj)
		}
		batch := montNormalize(m, js, nil)
		for i := range js {
			j := &js[i]
			want := c.fromJacobian(&jacobianPoint{x: m.ToBig(&j.x), y: m.ToBig(&j.y), z: m.ToBig(&j.z)})
			got := c.fromMontAffine(m, &batch[i])
			if string(c.Marshal(got)) != string(c.Marshal(want)) {
				t.Fatalf("%s: montNormalize[%d] = %v, fromJacobian gives %v", name, i, got, want)
			}
		}
		var inf montJac
		inf.setInfinity(m)
		if all := montNormalize(m, []montJac{inf}, nil); !all[0].inf {
			t.Fatalf("%s: montNormalize(∞) not ∞", name)
		}
		if got := montNormalize(m, nil, nil); len(got) != 0 {
			t.Fatalf("%s: montNormalize(nil) returned %d points", name, len(got))
		}
	}
}

func TestWNAFDigitsReconstructScalar(t *testing.T) {
	c := testCurve(t)
	for _, k := range testScalars(t, c, 24) {
		if k.Sign() <= 0 {
			continue
		}
		digits := wnafDigits(k, scalarWindow)
		// Σ d_i · 2^i must equal k, every non-zero digit must be odd and
		// within the window bound.
		sum := new(big.Int)
		bound := int8(1 << (scalarWindow - 1))
		for i, d := range digits {
			if d != 0 {
				if d%2 == 0 || d >= bound || d <= -bound {
					t.Fatalf("digit %d out of w-NAF range: %d", i, d)
				}
			}
			term := new(big.Int).Lsh(big.NewInt(int64(d)), uint(i))
			sum.Add(sum, term)
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("wNAF digits of %v reconstruct to %v", k, sum)
		}
	}
}
