package ff

import (
	"math/big"
	"math/rand/v2"
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

// mont8Edges returns canonical residues that stress the 8-limb carry chains
// of q512 = 2⁵¹¹ + (a 460-bit tail): 0, 1, q−1, q−2, 2⁵¹¹ and the all-ones
// 2⁵¹¹ − 1 − j, plus R mod q (the Montgomery one, also all-ones limbs).
func mont8Edges(m *Mont) []*big.Int {
	q := m.p
	one := big.NewInt(1)
	half := new(big.Int).Lsh(one, 511)
	out := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(q, one),
		new(big.Int).Sub(q, big.NewInt(2)),
		new(big.Int).Set(half),
		limbsToBig(&m.one, m.k),
	}
	for j := int64(0); j < 4; j++ {
		out = append(out, new(big.Int).Sub(half, big.NewInt(1+j)))
	}
	return out
}

// checkMont8 compares the four 8-limb kernels with the generic loops on
// (a, b), including the aliased forms dst == a and dst == b.
func checkMont8(t *testing.T, m *Mont, a, b *Fel) {
	t.Helper()
	var got, want Fel
	m.mul8(&got, a, b)
	m.mulK(&want, a, b)
	if got != want {
		t.Fatalf("mul8(%x, %x) = %x, generic %x", a, b, got, want)
	}
	got = *a
	m.mul8(&got, &got, b)
	if got != want {
		t.Fatalf("mul8 aliased dst == a = %x, generic %x", got, want)
	}
	m.sqr8(&got, a)
	m.mulK(&want, a, a)
	if got != want {
		t.Fatalf("sqr8(%x) = %x, generic %x", a, got, want)
	}
	got = *a
	m.sqr8(&got, &got)
	if got != want {
		t.Fatalf("sqr8 aliased = %x, generic %x", got, want)
	}
	m.add8(&got, a, b)
	m.addK(&want, a, b)
	if got != want {
		t.Fatalf("add8(%x, %x) = %x, generic %x", a, b, got, want)
	}
	got = *b
	m.add8(&got, a, &got)
	if got != want {
		t.Fatalf("add8 aliased dst == b = %x, generic %x", got, want)
	}
	m.sub8(&got, a, b)
	m.subK(&want, a, b)
	if got != want {
		t.Fatalf("sub8(%x, %x) = %x, generic %x", a, b, got, want)
	}
	got = *b
	m.sub8(&got, a, &got)
	if got != want {
		t.Fatalf("sub8 aliased dst == b = %x, generic %x", got, want)
	}
}

func TestMont8MatchesGenericOnEdges(t *testing.T) {
	m := montTestFields(t)["q512"].Mont()
	if m.K() != MaxLimbs {
		t.Fatalf("q512 has %d limbs, want %d", m.K(), MaxLimbs)
	}
	edges := mont8Edges(m)
	topSet, addCarry := false, false
	for _, a := range edges {
		for _, b := range edges {
			var af, bf Fel
			bigToLimbs(&af, m.k, a)
			bigToLimbs(&bf, m.k, b)
			checkMont8(t, m, &af, &bf)
			topSet = topSet || ciosTopWordSet(m, a, b)
			addCarry = addCarry || new(big.Int).Add(a, b).BitLen() > 64*MaxLimbs
		}
	}
	// q512 has no spare bit: the edge set must reach both top carries, or
	// the agreement above proves nothing about them.
	if !topSet {
		t.Fatal("no edge product set the CIOS top carry word")
	}
	if !addCarry {
		t.Fatal("no edge sum carried out of 512 bits")
	}
}

func TestMont8MatchesGenericOnRandom(t *testing.T) {
	m := montTestFields(t)["q512"].Mont()
	n := 50000
	if testing.Short() {
		n = 5000
	}
	rng := rand.New(rand.NewPCG(7, 25))
	random := func() Fel {
		for {
			var f Fel
			for j := range f {
				f[j] = rng.Uint64()
			}
			f[MaxLimbs-1] %= m.n[MaxLimbs-1] + 1
			if limbsToBig(&f, m.k).Cmp(m.p) < 0 {
				return f
			}
		}
	}
	for i := 0; i < n; i++ {
		a, b := random(), random()
		checkMont8(t, m, &a, &b)
	}
}

var benchFel Fel

// BenchmarkMont times the four hot field kernels at each Type-A base-field
// width; q512-generic runs the k-limb loops at q512, the baseline the 8-limb
// kernels replace.
func BenchmarkMont(b *testing.B) {
	fields := montTestFields(b)
	type kernels struct {
		mul, add, sub func(dst, a, b *Fel)
		sqr           func(dst, a *Fel)
	}
	m512 := fields["q512"].Mont()
	rows := []struct {
		name string
		m    *Mont
		k    kernels
	}{
		{"q160", fields["q160"].Mont(), kernels{}},
		{"q256", fields["q256"].Mont(), kernels{}},
		{"q512", m512, kernels{}},
		{"q512-generic", m512, kernels{
			mul: m512.mulK, add: m512.addK, sub: m512.subK,
			sqr: func(dst, a *Fel) { m512.mulK(dst, a, a) },
		}},
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
