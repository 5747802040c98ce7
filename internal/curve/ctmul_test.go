package curve

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// ctSelectKernels are the two row scans: the Go ctSelectGo, everywhere, and
// the AVX2 kernel where the CPU has it.
var ctSelectKernels = []struct {
	name string
	sel  func(dst *montAffine, table []montAffine, idx uint64)
	ok   bool
}{
	{"go", ctSelectGo, true},
	{"avx2", ctSelectAVX2, ff.HasAVX2},
}

// TestCTSelectReturnsEveryEntry pins both row scans: for every index of the
// 8-entry rows of ScalarMultConstTime and the 64-entry rows of a FixedBase,
// each kernel returns exactly that entry, and for an index past the row it
// returns zero, on every parameter set. A row of random words in all
// ff.MaxLimbs limbs covers the accumulators a narrow field leaves zero.
// ctLoadDigit, on the kernel ctSelect dispatches to, returns that entry or
// its negation.
func TestCTSelectReturnsEveryEntry(t *testing.T) {
	rng := mrand.New(mrand.NewSource(33))
	type row struct {
		name    string
		entries []montAffine
		field   bool // reduced coordinates, so CondNeg applies
	}
	curves := fastPathCurves(t)
	rowsOf := map[string][]row{}
	for name, c := range curves {
		m := c.mont()
		p, err := c.RandPoint(rand.Reader)
		if err != nil {
			t.Fatalf("%s: RandPoint: %v", name, err)
		}
		synthetic := make([]montAffine, 1<<(fixedBaseWindow-1))
		for i := range synthetic {
			for l := range synthetic[i].x {
				synthetic[i].x[l], synthetic[i].y[l] = rng.Uint64(), rng.Uint64()
			}
		}
		rowsOf[name] = []row{
			{"ctWindow", c.montOddMultiples(m, p, 1<<(ctWindow-1)), true},
			{"fixedBaseWindow", c.montOddMultiples(m, p, 1<<(fixedBaseWindow-1)), true},
			{"random-limbs", synthetic, false},
		}
	}
	for _, k := range ctSelectKernels {
		t.Run(k.name, func(t *testing.T) {
			if !k.ok {
				t.Skip("CPU without AVX2 or OS-enabled YMM state")
			}
			for name, rows := range rowsOf {
				for _, r := range rows {
					n := len(r.entries)
					for idx := range r.entries {
						var got montAffine
						got.inf = true
						k.sel(&got, r.entries, uint64(idx))
						if got.x != r.entries[idx].x || got.y != r.entries[idx].y {
							t.Fatalf("%s/%s: select(%d) of %d ≠ row[%d]", name, r.name, idx, n, idx)
						}
					}
					for _, idx := range []uint64{uint64(n), uint64(n) + 1, 1 << 63, ^uint64(0)} {
						got := r.entries[0]
						k.sel(&got, r.entries, idx)
						if got.x != (ff.Fel{}) || got.y != (ff.Fel{}) {
							t.Fatalf("%s/%s: select(%d) of %d is not zero", name, r.name, idx, n)
						}
					}
				}
			}
		})
	}
	for name, rows := range rowsOf {
		m := curves[name].mont()
		for _, r := range rows {
			if !r.field {
				continue
			}
			for idx := range r.entries {
				var got montAffine
				for _, d := range []int8{int8(2*idx + 1), -int8(2*idx + 1)} {
					got.inf = true
					ctLoadDigit(m, &got, r.entries, d)
					want := r.entries[idx].y
					if d < 0 {
						m.Neg(&want, &want)
					}
					if got.inf || got.x != r.entries[idx].x || got.y != want {
						t.Fatalf("%s/%s: ctLoadDigit(%d) ≠ ±row[%d]", name, r.name, d, idx)
					}
				}
			}
		}
	}
}

// TestCTSelectKernelIsBranchFree holds ctmul_amd64.s to its constant-time
// shape: every instruction is from a short list, the only conditional
// branch is the loop's test of its counter against the row length, no
// memory operand is indexed by a register, no legacy-SSE instruction names
// an X or Y register (mixing one into VEX code costs a state transition per
// entry: a plain MOVQ into X4 made a 32-entry scan take microseconds
// instead of nanoseconds), and VZEROUPPER comes right before RET.
func TestCTSelectKernelIsBranchFree(t *testing.T) {
	src, err := os.ReadFile("ctmul_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"MOVQ": true, "XORQ": true, "NEGQ": true, "ORQ": true, "SHRQ": true, "DECQ": true, "INCQ": true,
		"ADDQ": true, "CMPQ": true, "JAE": true, "JMP": true, "VPXOR": true, "VMOVQ": true,
		"VPBROADCASTQ": true, "VPAND": true, "VPOR": true, "VMOVDQU": true, "VZEROUPPER": true, "RET": true,
	}
	// The loop counter is DX, compared with len(table) in CX; nothing else
	// may write either register.
	counterWrites := map[string]bool{"MOVQ table_len+16(FP), CX": true, "XORQ DX, DX": true, "INCQ DX": true}
	indexed := regexp.MustCompile(`\)\(`)
	vecReg := regexp.MustCompile(`\b[XY]\d+\b`)
	var prev string
	branches, rets := 0, 0
	for n, line := range strings.Split(string(src), "\n") {
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		line = strings.Join(strings.Fields(line), " ")
		if line == "" || strings.HasPrefix(line, "#include") || strings.HasPrefix(line, "TEXT ") || strings.HasSuffix(line, ":") {
			continue
		}
		op, args, _ := strings.Cut(line, " ")
		if !allowed[op] {
			t.Errorf("line %d: %s is not on the kernel's list: %q", n+1, op, line)
		}
		if indexed.MatchString(line) {
			t.Errorf("line %d: register-indexed memory operand: %q", n+1, line)
		}
		if !strings.HasPrefix(op, "V") && vecReg.MatchString(args) {
			t.Errorf("line %d: legacy-SSE instruction on a vector register: %q", n+1, line)
		}
		if f := strings.Split(args, ", "); op != "CMPQ" && (f[len(f)-1] == "DX" || f[len(f)-1] == "CX") && !counterWrites[line] {
			t.Errorf("line %d: writes the loop counter or bound: %q", n+1, line)
		}
		if strings.HasPrefix(op, "J") && op != "JMP" {
			branches++
			if prev != "CMPQ DX, CX" {
				t.Errorf("line %d: conditional branch not on the loop counter (after %q)", n+1, prev)
			}
		}
		if op == "RET" {
			rets++
			if prev != "VZEROUPPER" {
				t.Errorf("line %d: RET not preceded by VZEROUPPER (after %q)", n+1, prev)
			}
		}
		prev = line
	}
	if branches != 1 || rets != 1 {
		t.Errorf("%d conditional branches and %d RETs, want 1 and 1", branches, rets)
	}
}

// BenchmarkCTSelect times one full-row scan per kernel at the 32-entry rows
// of a w = 6 table and the 64-entry rows of w = 7, type-a-512.
func BenchmarkCTSelect(b *testing.B) {
	c := fastPathCurves(b)["type-a-512"]
	p, err := c.RandPoint(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range ctSelectKernels {
		for _, n := range []int{32, 64} {
			row := c.montOddMultiples(c.mont(), p, n)
			b.Run(fmt.Sprintf("%s/%d", k.name, n), func(b *testing.B) {
				if !k.ok {
					b.Skip("CPU without AVX2 or OS-enabled YMM state")
				}
				var dst montAffine
				idx := uint64(0)
				for b.Loop() {
					k.sel(&dst, row, idx)
					idx = (idx + 1) % uint64(n)
				}
			})
		}
	}
}

// TestMontNormalizeBlindedMatchesPlain checks that blinding the inversion
// changes nothing: on random batches of Jacobian points with random Z, the
// identity mixed in (and a batch of identities alone), the blinded
// normalisation equals the plain one limb for limb.
func TestMontNormalizeBlindedMatchesPlain(t *testing.T) {
	for name, c := range fastPathCurves(t) {
		m := c.mont()
		for trial := 0; trial < 8; trial++ {
			n := 1 + trial*3
			js := make([]montJac, n)
			for i := range js {
				if (i+trial)%4 == 0 {
					js[i].setInfinity(m)
					continue
				}
				p, err := c.RandPoint(rand.Reader)
				if err != nil {
					t.Fatalf("%s: RandPoint: %v", name, err)
				}
				z, err := c.F.RandNonZero(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				// (x·z², y·z³, z) is the same point as (x, y).
				a := toMontAffine(m, p)
				var zz, z2, z3 ff.Fel
				m.FromBig(&zz, z)
				m.Sqr(&z2, &zz)
				m.Mul(&z3, &z2, &zz)
				m.Mul(&js[i].x, &a.x, &z2)
				m.Mul(&js[i].y, &a.y, &z3)
				js[i].z = zz
			}
			plain := montNormalize(m, append([]montJac(nil), js...), nil)
			blinded := montNormalize(m, js, c.ctBlind(m))
			for i := range plain {
				if plain[i] != blinded[i] {
					t.Fatalf("%s: trial %d: entry %d of %d: blinded normalisation differs", name, trial, i, n)
				}
			}
		}
		inf := make([]montJac, 3)
		for i := range inf {
			inf[i].setInfinity(m)
		}
		for i, a := range montNormalize(m, inf, c.ctBlind(m)) {
			if !a.inf {
				t.Fatalf("%s: identity %d normalised to a finite point", name, i)
			}
		}
	}
}

// FuzzMulConstTimeEach differentially fuzzes the fixed-base constant-time
// walk: the input bytes pick one to three tables from a pool (two bases and
// the identity) and one scalar of any length for each — zero, r, r ± 1 and
// values past r included — and every result must equal ScalarMultReduced
// bit for bit.
func FuzzMulConstTimeEach(f *testing.F) {
	r, _ := new(big.Int).SetString(fastPathParams[0].r, 10)
	one := big.NewInt(1)
	f.Add(byte(0), []byte{0})
	f.Add(byte(1), append([]byte{byte(len(r.Bytes()))}, r.Bytes()...))
	rm1, rp1 := new(big.Int).Sub(r, one).Bytes(), new(big.Int).Add(r, one).Bytes()
	f.Add(byte(5), append(append([]byte{byte(len(rm1))}, rm1...), append([]byte{byte(len(rp1))}, rp1...)...))
	f.Add(byte(2), []byte{39, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x07})
	f.Add(byte(4), []byte("three scalars: the ones, the twos, and what is left of r"))
	q, _ := new(big.Int).SetString(fastPathParams[0].q, 10)
	h, _ := new(big.Int).SetString(fastPathParams[0].h, 10)
	fld, err := ff.NewField(q)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewCurve(fld, r, h)
	if err != nil {
		f.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(9))
	var pool []*FixedBase
	for i := 0; i < 2; i++ {
		p, err := c.RandPoint(rng)
		if err != nil {
			f.Fatal(err)
		}
		pool = append(pool, c.NewFixedBase(p))
	}
	pool = append(pool, c.NewFixedBase(c.Infinity()))
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		n := int(pick%3) + 1
		fbs := make([]*FixedBase, n)
		ks := make([]*big.Int, n)
		for i := range fbs {
			fbs[i] = pool[(int(pick/3)+i)%len(pool)]
			size := 0
			if len(data) > 0 {
				size = min(int(data[0])%48, len(data)-1)
				data = data[1:]
			}
			ks[i] = new(big.Int).SetBytes(data[:size])
			data = data[size:]
		}
		got := c.MulConstTimeEach(fbs, ks)
		for i, fb := range fbs {
			want := c.ScalarMultReduced(fb.Point(), ks[i])
			if string(c.Marshal(got[i])) != string(c.Marshal(want)) {
				t.Fatalf("table %d of %d, k = %v: MulConstTimeEach diverges from ScalarMultReduced", i, n, ks[i])
			}
		}
	})
}
