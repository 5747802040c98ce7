package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// TestRunPrintsAcceptedParams generates a small set and checks that the
// printed q, r and h pass the same constructors the pairing package wires
// its parameters through: F_q with q ≡ 3 (mod 4), Z_r, and the curve group
// with r·h = q + 1.
func TestRunPrintsAcceptedParams(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 128, 61, -1); err != nil {
		t.Fatalf("run: %v", err)
	}
	vals := map[string]*big.Int{}
	for _, line := range strings.Split(out.String(), "\n") {
		var name, dec string
		if _, err := fmt.Sscanf(line, "%s = %q", &name, &dec); err != nil {
			continue
		}
		v, ok := new(big.Int).SetString(dec, 10)
		if !ok {
			t.Fatalf("%s is not a decimal integer: %q", name, dec)
		}
		vals[name] = v
	}
	q, r, h := vals["q"], vals["r"], vals["h"]
	if q == nil || r == nil || h == nil {
		t.Fatalf("output lacks q, r or h:\n%s", out.String())
	}
	if q.BitLen() != 128 {
		t.Fatalf("q has %d bits, want 128", q.BitLen())
	}
	f, err := ff.NewField(q)
	if err != nil {
		t.Fatalf("NewField(q): %v", err)
	}
	if _, err := ff.NewFieldUnchecked(r); err != nil {
		t.Fatalf("NewFieldUnchecked(r): %v", err)
	}
	if _, err := curve.NewCurve(f, r, h); err != nil {
		t.Fatalf("NewCurve: %v", err)
	}
}

// TestRunRefusesWideField checks that a q wider than the field arithmetic
// takes fails at once, naming the limit, instead of running the cofactor
// search and failing when the base field is built from its result.
func TestRunRefusesWideField(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, 600, 159, -1)
	if !errors.Is(err, ff.ErrModulusTooWide) {
		t.Fatalf("run(600) = %v, want ff.ErrModulusTooWide", err)
	}
	if !strings.Contains(err.Error(), "limit 512") {
		t.Fatalf("error %q does not name the 512-bit limit", err)
	}
	if strings.Contains(err.Error(), "base field") {
		t.Fatalf("error %q comes from building a searched q, not from the up-front check", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run(600) printed %q", out.String())
	}
}
