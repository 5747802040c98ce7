//go:build !amd64

package ff

// hasADX is false off amd64: Mul and Sqr at k == MaxLimbs run the Go
// mul8/sqr8.
const hasADX = false

// HasAVX2 is false off amd64: internal/curve runs its Go row scan.
const HasAVX2 = false

// HasIFMA is false off amd64: internal/curve runs its scalar batch addition.
const HasIFMA = false

// mul8ADX is never called off amd64 (hasADX is false).
func mul8ADX(dst, a, b, q *Fel, n0 uint64) { panic("ff: mul8ADX needs amd64") }

// sqr8ADX is never called off amd64 (hasADX is false).
func sqr8ADX(dst, a, q *Fel, n0 uint64) { panic("ff: sqr8ADX needs amd64") }

// laneMulIFMA is never called off amd64 (HasIFMA is false).
func laneMulIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64, n0 uint64) {
	panic("ff: laneMulIFMA needs amd64")
}

// laneAddIFMA is never called off amd64 (HasIFMA is false).
func laneAddIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64) { panic("ff: laneAddIFMA needs amd64") }

// laneSubIFMA is never called off amd64 (HasIFMA is false).
func laneSubIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64) { panic("ff: laneSubIFMA needs amd64") }

// laneGatherIFMA is never called off amd64 (HasIFMA is false).
func laneGatherIFMA(dst *Lanes, src *[8]*Fel) { panic("ff: laneGatherIFMA needs amd64") }

// laneScatterIFMA is never called off amd64 (HasIFMA is false).
func laneScatterIFMA(src *Lanes, dst *[8]*Fel) { panic("ff: laneScatterIFMA needs amd64") }
