package ff

import (
	"math/big"
	"math/rand/v2"
	"testing"
)

// laneEdges returns the canonical limb values the lane kernels are checked
// on for an 8-limb modulus: montEdges (0, 1, q−1, q−2, R mod q, 2⁵¹¹ and the
// values just under it), plus 2^(52i) and 2^(52i) − 1 at every 52-bit digit
// boundary, where a digit's carry into the next one is first taken.
func laneEdges(m *Mont) []Fel {
	vals := montEdges(m)
	one := big.NewInt(1)
	for i := 1; i < laneDigits; i++ {
		b := new(big.Int).Lsh(one, uint(52*i))
		vals = append(vals, b, new(big.Int).Sub(b, one))
	}
	var out []Fel
	for _, v := range vals {
		if v.Cmp(m.p) < 0 {
			var f Fel
			bigToLimbs(&f, m.k, v)
			out = append(out, f)
		}
	}
	return out
}

// randomFel returns a uniformly random canonical limb value below m's
// modulus.
func randomFel(m *Mont, rng *rand.Rand) Fel {
	for {
		var f Fel
		for j := range f {
			f[j] = rng.Uint64()
		}
		if limbsToBig(&f, m.k).Cmp(m.p) < 0 {
			return f
		}
	}
}

// checkLanes loads a[j], b[j] into lane j and checks LaneMul (also with dst
// aliasing a, b and both), LaneMul(a, a), LaneAdd and LaneSub against Mul,
// Sqr, Add and Sub lane by lane.
func checkLanes(t *testing.T, m *Mont, a, b *[8]Fel) {
	t.Helper()
	var la, lb Lanes
	for j := range a {
		la.Set(j, &a[j])
		lb.Set(j, &b[j])
	}
	check := func(op string, got *Lanes, want func(dst, a, b *Fel)) {
		t.Helper()
		for j := range a {
			var g, w Fel
			got.Get(&g, j)
			want(&w, &a[j], &b[j])
			if g != w {
				t.Fatalf("%s lane %d (%x, %x) = %x, want %x", op, j, a[j], b[j], g, w)
			}
		}
	}
	var out Lanes
	m.LaneMul(&out, &la, &lb)
	check("LaneMul", &out, m.Mul)
	out = la
	m.LaneMul(&out, &out, &lb)
	check("LaneMul dst == a", &out, m.Mul)
	out = lb
	m.LaneMul(&out, &la, &out)
	check("LaneMul dst == b", &out, m.Mul)
	out = la
	m.LaneMul(&out, &out, &out)
	check("LaneMul dst == a == b", &out, func(dst, a, _ *Fel) { m.Sqr(dst, a) })
	m.LaneAdd(&out, &la, &lb)
	check("LaneAdd", &out, m.Add)
	m.LaneSub(&out, &la, &lb)
	check("LaneSub", &out, m.Sub)
}

// eachLaneModulus runs check per 8-limb modulus (q512 and p512, which fills
// its top limb), skipping where the CPU has no IFMA.
func eachLaneModulus(t *testing.T, check func(t *testing.T, m *Mont)) {
	if !HasIFMA {
		t.Skip("no AVX-512 IFMA on this CPU or architecture")
	}
	for name, m := range mont8Moduli(t) {
		t.Run(name, func(t *testing.T) { check(t, m) })
	}
}

func TestLanesSetGetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 3))
	for name, m := range mont8Moduli(t) {
		vals := laneEdges(m)
		for range 1000 {
			vals = append(vals, randomFel(m, rng))
		}
		for i, v := range vals {
			var l Lanes
			var got Fel
			l.Set(i%8, &v)
			if l.Get(&got, i%8); got != v {
				t.Fatalf("%s: Get(Set(%x)) = %x", name, v, got)
			}
			for d := range l {
				if l[d][i%8] > mask52 {
					t.Fatalf("%s: digit %d of %x is %x, past 52 bits", name, d, v, l[d][i%8])
				}
			}
		}
	}
}

func TestLaneKernelsMatchMontOnEdges(t *testing.T) {
	eachLaneModulus(t, func(t *testing.T, m *Mont) {
		edges := laneEdges(m)
		var a, b [8]Fel
		n := 0
		for _, x := range edges {
			for _, y := range edges {
				a[n%8], b[n%8] = x, y
				if n++; n%8 == 0 {
					checkLanes(t, m, &a, &b)
				}
			}
		}
		if n%8 != 0 {
			checkLanes(t, m, &a, &b)
		}
	})
}

func TestLaneKernelsMatchMontOnRandom(t *testing.T) {
	eachLaneModulus(t, func(t *testing.T, m *Mont) {
		rng := rand.New(rand.NewPCG(11, 52))
		rounds := 20000
		if testing.Short() {
			rounds = 2000
		}
		edges := laneEdges(m)
		for i := range rounds {
			var a, b [8]Fel
			for j := range a {
				a[j], b[j] = randomFel(m, rng), randomFel(m, rng)
			}
			// Every fourth round puts an edge value in one lane, so edges
			// also meet random partners in every lane position.
			if i%4 == 0 {
				a[i%8] = edges[rng.IntN(len(edges))]
			}
			checkLanes(t, m, &a, &b)
		}
	})
}

// FuzzLaneMulVsMont checks the lane kernels against Mul, Sqr, Add and Sub
// at q512 on fuzzer-chosen operands: lane j takes a and b each multiplied by
// j + 1 mod q, so the eight lanes differ. It skips where the CPU has no IFMA.
func FuzzLaneMulVsMont(f *testing.F) {
	for _, a := range q512FuzzSeeds() {
		for _, b := range q512FuzzSeeds() {
			f.Add(a.Bytes(), b.Bytes())
		}
	}
	if !HasIFMA {
		f.Log("no AVX-512 IFMA on this CPU: the lane kernels are not run")
		f.Skip("no AVX-512 IFMA on this CPU or architecture")
	}
	fld := montTestFields(f)["q512"]
	m := fld.Mont()
	f.Fuzz(func(t *testing.T, aRaw, bRaw []byte) {
		if len(aRaw) > 96 || len(bRaw) > 96 {
			return
		}
		a := fld.Reduce(new(big.Int).SetBytes(aRaw))
		b := fld.Reduce(new(big.Int).SetBytes(bRaw))
		var as, bs [8]Fel
		for j := range as {
			k := big.NewInt(int64(j + 1))
			bigToLimbs(&as[j], m.k, fld.Mul(a, k))
			bigToLimbs(&bs[j], m.k, fld.Mul(b, k))
		}
		checkLanes(t, m, &as, &bs)
	})
}

// BenchmarkLaneMul times one LaneMul (eight q512 products) beside the scalar
// Mul it replaces eight times over.
func BenchmarkLaneMul(b *testing.B) {
	if !HasIFMA {
		b.Skip("no AVX-512 IFMA on this CPU or architecture")
	}
	m := montTestFields(b)["q512"].Mont()
	rng := rand.New(rand.NewPCG(1, 2))
	var x, y Lanes
	for j := range 8 {
		fx, fy := randomFel(m, rng), randomFel(m, rng)
		x.Set(j, &fx)
		y.Set(j, &fy)
	}
	b.Run("LaneMul", func(b *testing.B) {
		for b.Loop() {
			m.LaneMul(&x, &x, &y)
		}
	})
	b.Run("LaneSub", func(b *testing.B) {
		for b.Loop() {
			m.LaneSub(&x, &x, &y)
		}
	})
}

// TestLaneGatherScatterMatchSetGet checks the vector Gather and Scatter
// against eight Sets and Gets.
func TestLaneGatherScatterMatchSetGet(t *testing.T) {
	if !HasIFMA {
		t.Skip("no AVX-512 IFMA on this CPU or architecture")
	}
	rng := rand.New(rand.NewPCG(3, 9))
	for name, m := range mont8Moduli(t) {
		vals := laneEdges(m)
		for range 64 {
			vals = append(vals, randomFel(m, rng))
		}
		for i := 0; i+8 <= len(vals); i++ {
			var src [8]*Fel
			var want Lanes
			for j := range src {
				src[j] = &vals[i+j]
				want.Set(j, src[j])
			}
			var got Lanes
			if got.Gather(&src); got != want {
				t.Fatalf("%s: Gather(%x) = %x, want %x", name, vals[i:i+8], got, want)
			}
			var out [8]Fel
			var dst [8]*Fel
			for j := range dst {
				dst[j] = &out[j]
			}
			got.Scatter(&dst)
			for j := range out {
				if out[j] != vals[i+j] {
					t.Fatalf("%s: Scatter lane %d = %x, want %x", name, j, out[j], vals[i+j])
				}
			}
		}
	}
}

// TestKernelFeatures logs which paper-width kernels this CPU runs, so a CI
// log shows what the differential tests actually exercised there.
func TestKernelFeatures(t *testing.T) {
	t.Logf("hasADX (mul8ADX, sqr8ADX) = %v", hasADX)
	t.Logf("HasAVX2 (curve's vector row scan) = %v", HasAVX2)
	t.Logf("HasIFMA (lane kernels, curve's lane batch addition) = %v", HasIFMA)
}
