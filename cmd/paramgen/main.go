// Command paramgen generates Type-A pairing parameters the same way PBC's
// a.param generator does: a Solinas prime r = 2^a + 2^b + 1 as group order
// and a prime q = h·r − 1 ≡ 3 (mod 4) as base field.
//
// Usage:
//
//	paramgen -qbits 512 -exphigh 159 [-explow 107]
//
// When -explow is negative, paramgen searches downward from exphigh−2 for
// the first exponent making r prime. The output is a Go snippet suitable for
// pasting into internal/pairing/typea.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"

	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

func main() {
	qBits := flag.Int("qbits", 512, "bit length of the base-field prime q")
	expHigh := flag.Int("exphigh", 159, "high Solinas exponent of r")
	expLow := flag.Int("explow", -1, "low Solinas exponent of r (negative = search)")
	flag.Parse()
	if err := run(os.Stdout, *qBits, *expHigh, *expLow); err != nil {
		fmt.Fprintln(os.Stderr, "paramgen:", err)
		os.Exit(1)
	}
}

// run writes the parameter snippet for the given widths to w. A qBits wider
// than the field arithmetic takes fails before the cofactor search.
func run(w io.Writer, qBits, expHigh, expLow int) error {
	lows := []int{expLow}
	if expLow < 0 {
		lows = lows[:0]
		one := big.NewInt(1)
		for b := expHigh - 2; b > 1; b-- {
			r := new(big.Int).Lsh(one, uint(expHigh))
			r.Add(r, new(big.Int).Lsh(one, uint(b)))
			r.Add(r, one)
			if r.ProbablyPrime(30) {
				lows = append(lows, b)
				break
			}
		}
		if len(lows) == 0 {
			return fmt.Errorf("no Solinas prime with high exponent %d", expHigh)
		}
	}
	p, err := pairing.Generate(expHigh, lows[0], qBits)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "// Type-A parameters: r = 2^%d + 2^%d + 1, q = h·r − 1 (%d bits)\n", expHigh, lows[0], p.Q.BitLen())
	fmt.Fprintf(w, "// q bits: %d, r bits: %d\n", p.Q.BitLen(), p.R.BitLen())
	fmt.Fprintf(w, "q = %q\n", p.Q.String())
	fmt.Fprintf(w, "r = %q\n", p.R.String())
	fmt.Fprintf(w, "h = %q\n", p.H.String())
	return nil
}
