package ff

import (
	"math/big"
	"math/rand/v2"
	"os"
	"regexp"
	"strings"
	"testing"
)

// ciosTopWordSet reports whether some row of the CIOS product a·b·R⁻¹ mod q
// leaves its shifted accumulator at or above 2^(64k) — the carry the k+1-th
// word (t8 in mul8) exists for. It replays the row recurrence in big.Int.
func ciosTopWordSet(m *Mont, a, b *big.Int) bool {
	w := new(big.Int).Lsh(big.NewInt(1), 64)
	top := new(big.Int).Lsh(big.NewInt(1), uint(64*m.k))
	n0 := new(big.Int).SetUint64(m.n0)
	t, u, bi := new(big.Int), new(big.Int), new(big.Int)
	set := false
	for i := 0; i < m.k; i++ {
		bi.Rsh(b, uint(64*i))
		bi.Mod(bi, w)
		t.Add(t, bi.Mul(bi, a))
		u.Mod(t, w)
		u.Mul(u, n0)
		u.Mod(u, w)
		t.Add(t, u.Mul(u, m.p))
		t.Rsh(t, 64)
		set = set || t.Cmp(top) >= 0
	}
	return set
}

// montEdges returns canonical residues that stress the carry chains of a
// modulus of b bits: 0, 1, q−1, q−2, 2^(b−1) and the all-ones 2^(b−1) − 1 − j,
// R mod q (the Montgomery one), and the all-ones value of b bits when it is
// below q. For q512 = 2⁵¹¹ + (a 460-bit tail) these reach both top carries.
func montEdges(m *Mont) []*big.Int {
	q := m.p
	one := big.NewInt(1)
	half := new(big.Int).Lsh(one, uint(q.BitLen()-1))
	out := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(q, one),
		new(big.Int).Sub(q, big.NewInt(2)),
		limbsToBig(&m.one, m.k),
	}
	if half.Cmp(q) < 0 {
		out = append(out, half)
	}
	for j := int64(0); j < 4; j++ {
		out = append(out, new(big.Int).Sub(half, big.NewInt(1+j)))
	}
	if ones := new(big.Int).Sub(new(big.Int).Lsh(half, 1), one); ones.Cmp(q) < 0 {
		out = append(out, ones)
	}
	return out
}

// kernels is one width's set of field kernels, for checking an unrolled set
// against the generic loops and for benchmarking either.
type kernels struct {
	mul, add, sub func(dst, a, b *Fel)
	sqr           func(dst, a *Fel)
}

// checkKernels compares a set of unrolled kernels with the generic loops on
// (a, b), including the aliased forms dst == a, dst == b and dst == a == b.
// At 8 limbs the products must also match the Go mul8 and sqr8 limb for limb.
func checkKernels(t *testing.T, m *Mont, k kernels, a, b *Fel) {
	t.Helper()
	var got, want, go8 Fel
	k.mul(&got, a, b)
	m.mulK(&want, a, b)
	if got != want {
		t.Fatalf("mul(%x, %x) = %x, generic %x", a, b, got, want)
	}
	if m.k == MaxLimbs {
		if m.mul8(&go8, a, b); got != go8 {
			t.Fatalf("mul(%x, %x) = %x, mul8 %x", a, b, got, go8)
		}
	}
	got = *a
	k.mul(&got, &got, b)
	if got != want {
		t.Fatalf("mul aliased dst == a = %x, generic %x", got, want)
	}
	got = *b
	k.mul(&got, a, &got)
	if got != want {
		t.Fatalf("mul aliased dst == b = %x, generic %x", got, want)
	}
	k.sqr(&got, a)
	m.mulK(&want, a, a)
	if got != want {
		t.Fatalf("sqr(%x) = %x, generic %x", a, got, want)
	}
	if m.k == MaxLimbs {
		if m.sqr8(&go8, a); got != go8 {
			t.Fatalf("sqr(%x) = %x, sqr8 %x", a, got, go8)
		}
	}
	got = *a
	k.sqr(&got, &got)
	if got != want {
		t.Fatalf("sqr aliased = %x, generic %x", got, want)
	}
	got = *a
	k.mul(&got, &got, &got)
	if got != want {
		t.Fatalf("mul aliased dst == a == b = %x, generic %x", got, want)
	}
	k.add(&got, a, b)
	m.addK(&want, a, b)
	if got != want {
		t.Fatalf("add(%x, %x) = %x, generic %x", a, b, got, want)
	}
	got = *b
	k.add(&got, a, &got)
	if got != want {
		t.Fatalf("add aliased dst == b = %x, generic %x", got, want)
	}
	k.sub(&got, a, b)
	m.subK(&want, a, b)
	if got != want {
		t.Fatalf("sub(%x, %x) = %x, generic %x", a, b, got, want)
	}
	got = *b
	k.sub(&got, a, &got)
	if got != want {
		t.Fatalf("sub aliased dst == b = %x, generic %x", got, want)
	}
}

// checkEdges runs checkKernels over every pair of montEdges. A modulus that
// fills its top limb must reach both top carries — the CIOS word above the
// accumulator and a sum past 2^(64k) — or the agreement proves nothing about
// them.
func checkEdges(t *testing.T, m *Mont, k kernels) {
	t.Helper()
	edges := montEdges(m)
	topSet, addCarry := false, false
	for _, a := range edges {
		for _, b := range edges {
			var af, bf Fel
			bigToLimbs(&af, m.k, a)
			bigToLimbs(&bf, m.k, b)
			checkKernels(t, m, k, &af, &bf)
			topSet = topSet || ciosTopWordSet(m, a, b)
			addCarry = addCarry || new(big.Int).Add(a, b).BitLen() > 64*m.k
		}
	}
	if m.p.BitLen() == 64*m.k && (!topSet || !addCarry) {
		t.Fatalf("%d-bit modulus: edges reach CIOS top carry %v, sum carry %v; want both", m.p.BitLen(), topSet, addCarry)
	}
}

// checkRandom runs checkKernels on 50 000 pairs of canonical residues drawn
// from rng, a tenth of that under -short.
func checkRandom(t *testing.T, m *Mont, k kernels, rng *rand.Rand) {
	t.Helper()
	n := 50000
	if testing.Short() {
		n = 5000
	}
	top := m.n[m.k-1]
	random := func() Fel {
		for {
			var f Fel
			for j := 0; j < m.k; j++ {
				f[j] = rng.Uint64()
			}
			if top != ^uint64(0) {
				f[m.k-1] %= top + 1
			}
			if limbsToBig(&f, m.k).Cmp(m.p) < 0 {
				return f
			}
		}
	}
	for i := 0; i < n; i++ {
		a, b := random(), random()
		checkKernels(t, m, k, &a, &b)
	}
}

// go8Kernels is the Go 8-limb kernel set of m.
func go8Kernels(m *Mont) kernels {
	return kernels{mul: m.mul8, sqr: m.sqr8, add: m.add8, sub: m.sub8}
}

// adxKernels is the 8-limb kernel set with Mul and Sqr on mul8ADX and
// sqr8ADX, as Mont runs them on a CPU with BMI2 and ADX.
func adxKernels(m *Mont) kernels {
	return kernels{
		mul: func(dst, a, b *Fel) { mul8ADX(dst, a, b, &m.n, m.n0) },
		sqr: func(dst, a *Fel) { sqr8ADX(dst, a, &m.n, m.n0) },
		add: m.add8,
		sub: m.sub8,
	}
}

// mont8Moduli are the 8-limb moduli the kernels are checked on: q512, the
// one the system runs, and p512 = 2⁵¹² − 2⁶⁴ − 1, which fills the top limb.
// q512 = 2⁵¹¹ + (a 460-bit tail) only ever carries into the ninth
// accumulator word from a reduction's high-half chain; p512's edges also
// carry into it from the low-half chain, spill a row's product into the
// tenth word on both chains, and end a product at or above 2⁵¹², so every
// carry the ADX kernels keep is exercised.
func mont8Moduli(t *testing.T) map[string]*Mont {
	t.Helper()
	one := big.NewInt(1)
	p512 := new(big.Int).Lsh(one, 512)
	p512.Sub(p512, new(big.Int).Lsh(one, 64))
	p512.Sub(p512, one)
	out := map[string]*Mont{
		"q512": montTestFields(t)["q512"].Mont(),
		"p512": newMont(p512),
	}
	for name, m := range out {
		if m.K() != MaxLimbs {
			t.Fatalf("%s has %d limbs, want %d", name, m.K(), MaxLimbs)
		}
	}
	return out
}

// eachMont8Kernels runs check as one subtest per 8-limb modulus and kernel
// set: "go" (mul8, sqr8) and, where the CPU has BMI2 and ADX, "adx"
// (mul8ADX, sqr8ADX).
func eachMont8Kernels(t *testing.T, check func(t *testing.T, m *Mont, k kernels)) {
	for name, m := range mont8Moduli(t) {
		t.Run(name+"/go", func(t *testing.T) { check(t, m, go8Kernels(m)) })
		t.Run(name+"/adx", func(t *testing.T) {
			if !hasADX {
				t.Skip("no BMI2/ADX on this CPU or architecture")
			}
			check(t, m, adxKernels(m))
		})
	}
}

func TestMont8MatchesGenericOnEdges(t *testing.T) {
	eachMont8Kernels(t, checkEdges)
}

func TestMont8MatchesGenericOnRandom(t *testing.T) {
	eachMont8Kernels(t, func(t *testing.T, m *Mont, k kernels) {
		checkRandom(t, m, k, rand.New(rand.NewPCG(7, 25)))
	})
}

// TestPaperWidthKernelIsStraightLine holds mont8_amd64.s to constant time by
// construction: every instruction is from a short list of arithmetic and
// moves (so no J*, CALL or SETcc), no memory operand is indexed by a
// register (no address depends on data), and the only select is the final
// CMOVQCS, one per limb.
func TestPaperWidthKernelIsStraightLine(t *testing.T) {
	src, err := os.ReadFile("mont8_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"MOVQ": true, "MOVL": true, "XORQ": true, "MULXQ": true, "ADCXQ": true, "ADOXQ": true,
		"ADDQ": true, "ADCQ": true, "IMULQ": true, "SUBQ": true, "SBBQ": true, "CMOVQCS": true, "CPUID": true, "XGETBV": true, "RET": true,
	}
	indexed := regexp.MustCompile(`\)\(`)
	macros := map[string]bool{}
	cmovs := 0
	for n, line := range strings.Split(string(src), "\n") {
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), "\\"))
		if name, ok := strings.CutPrefix(line, "#define "); ok {
			macros[strings.SplitN(name, "(", 2)[0]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#include") || strings.HasPrefix(line, "TEXT ") {
			continue
		}
		op := strings.Fields(line)[0]
		if name, _, ok := strings.Cut(op, "("); ok {
			if !macros[name] {
				t.Errorf("line %d: %q is not a macro defined above it", n+1, name)
			}
			continue
		}
		if !allowed[op] {
			t.Errorf("line %d: %s is not a straight-line instruction: %q", n+1, op, line)
		}
		if indexed.MatchString(line) {
			t.Errorf("line %d: register-indexed memory operand: %q", n+1, line)
		}
		if op == "CMOVQCS" {
			cmovs++
		}
	}
	if cmovs != MaxLimbs {
		t.Errorf("%d CMOVQCS selects, want one per limb (%d)", cmovs, MaxLimbs)
	}
}

var benchFel Fel

// genericKernels is the k-limb loop set of m, the baseline the unrolled
// kernels replace.
func genericKernels(m *Mont) kernels {
	return kernels{mul: m.mulK, add: m.addK, sub: m.subK, sqr: func(dst, a *Fel) { m.mulK(dst, a, a) }}
}

// BenchmarkMont times the four hot field kernels at each Type-A base-field
// width and at r160, the 160-bit Z_r of type-a-512 (r512 in the test
// moduli); the -generic rows run the k-limb loops at the same modulus, the
// baseline the 8- and 3-limb kernels replace, and q512-go the Go 8-limb
// kernels, which the q512 row runs too on a CPU without BMI2 and ADX.
func BenchmarkMont(b *testing.B) {
	fields := montTestFields(b)
	m512, m160, r160 := fields["q512"].Mont(), fields["q160"].Mont(), fields["r512"].Mont()
	rows := []struct {
		name string
		m    *Mont
		k    kernels
	}{
		{"q160", m160, kernels{}},
		{"q160-generic", m160, genericKernels(m160)},
		{"r160", r160, kernels{}},
		{"r160-generic", r160, genericKernels(r160)},
		{"q256", fields["q256"].Mont(), kernels{}},
		{"q512", m512, kernels{}},
		{"q512-go", m512, go8Kernels(m512)},
		{"q512-generic", m512, genericKernels(m512)},
	}
	for _, row := range rows {
		m, k := row.m, row.k
		if k.mul == nil {
			k = kernels{mul: m.Mul, sqr: m.Sqr, add: m.Add, sub: m.Sub}
		}
		var x, y Fel
		m.FromBig(&x, new(big.Int).Sub(m.p, big.NewInt(3)))
		m.FromBig(&y, new(big.Int).Rsh(m.p, 1))
		b.Run(row.name+"/Mul", func(b *testing.B) {
			for b.Loop() {
				k.mul(&x, &x, &y)
			}
			benchFel = x
		})
		b.Run(row.name+"/Sqr", func(b *testing.B) {
			for b.Loop() {
				k.sqr(&x, &x)
			}
			benchFel = x
		})
		b.Run(row.name+"/Add", func(b *testing.B) {
			for b.Loop() {
				k.add(&x, &x, &y)
			}
			benchFel = x
		})
		b.Run(row.name+"/Sub", func(b *testing.B) {
			for b.Loop() {
				k.sub(&x, &x, &y)
			}
			benchFel = x
		})
	}
}
