package pairing

import (
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// gtFixedBaseWindow is the radix-2^w digit width of a GTFixedBase table,
// mirroring the G1 fixed-base layout: ⌈bits(r)/w⌉ windows of 2^w − 1 odd and
// even digit multiples each.
const gtFixedBaseWindow = 4

// GTFixedBase is a precomputed exponentiation table for one long-lived GT
// element — in the IBBE scheme the public key's v = e(g, h), whose powers
// v^k are taken on every EncryptMSK, Rekey and RemoveUser call. Exp reduces
// the exponent modulo r and performs one F_q² multiplication per non-zero
// radix-2^w digit: ≈ bits(r)/4 multiplications and zero squarings, against
// bits(r) squarings plus bits(r)/5 multiplications for the generic ladder.
// The table is built and walked in the Montgomery domain; GTExpBinary is the
// reference the tests pin it against.
//
// A GTFixedBase is immutable after construction and safe for concurrent use.
type GTFixedBase struct {
	p     *Params
	table [][]ff.E2Fel // table[i][d-1] = base^(d·2^(w·i)), limb domain
}

// NewGTFixedBase builds the windowed table for a. Construction costs about
// four generic exponentiations' worth of multiplications, so it pays off for
// any element exponentiated more than a few times.
func (p *Params) NewGTFixedBase(a *GT) *GTFixedBase {
	const w = gtFixedBaseWindow
	const per = (1 << w) - 1
	nWin := (p.R.BitLen() + w - 1) / w
	m := p.F.Mont()
	table := make([][]ff.E2Fel, nWin)
	var cur ff.E2Fel
	m.E2FromE2(&cur, a.v)
	for i := range table {
		row := make([]ff.E2Fel, per)
		row[0] = cur
		for d := 1; d < per; d++ {
			m.E2Mul(&row[d], &row[d-1], &cur)
		}
		table[i] = row
		for b := 0; b < w; b++ {
			m.E2Sqr(&cur, &cur)
		}
	}
	return &GTFixedBase{p: p, table: table}
}

// Exp returns base^(k mod r) from the table: the digit walk multiplies
// E2Fel entries in the Montgomery domain, converting out once at the end.
func (t *GTFixedBase) Exp(k *big.Int) *GT {
	const w = gtFixedBaseWindow
	e := new(big.Int).Mod(k, t.p.R)
	m := t.p.F.Mont()
	var acc ff.E2Fel
	m.E2SetOne(&acc)
	for i := range t.table {
		d := 0
		for b := 0; b < w; b++ {
			d |= int(e.Bit(i*w+b)) << b
		}
		if d == 0 {
			continue
		}
		m.E2Mul(&acc, &acc, &t.table[i][d-1])
	}
	return &GT{v: m.E2ToE2(&acc)}
}
