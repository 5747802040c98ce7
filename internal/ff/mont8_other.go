//go:build !amd64

package ff

// hasADX is false off amd64: Mul and Sqr at k == MaxLimbs run the Go
// mul8/sqr8.
const hasADX = false

// HasAVX2 is false off amd64: internal/curve runs its Go row scan.
const HasAVX2 = false

// mul8ADX is never called off amd64 (hasADX is false).
func mul8ADX(dst, a, b, q *Fel, n0 uint64) { panic("ff: mul8ADX needs amd64") }

// sqr8ADX is never called off amd64 (hasADX is false).
func sqr8ADX(dst, a, q *Fel, n0 uint64) { panic("ff: sqr8ADX needs amd64") }
