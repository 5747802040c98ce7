package ibbe

import (
	"math/big"
	"sync/atomic"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// Metrics counts the expensive primitive operations performed by the scheme.
// The Table I reproduction attaches a Metrics to a Scheme and checks that the
// measured operation counts scale exactly as the paper's complexity table
// says (O(1), O(n), O(n²)), which is far more robust than timing fits.
type Metrics struct {
	// G1Exp counts elliptic-curve scalar multiplications.
	G1Exp atomic.Int64
	// GTExp counts target-group exponentiations.
	GTExp atomic.Int64
	// Pairings counts pairing evaluations.
	Pairings atomic.Int64
	// ZrMul counts scalar-field multiplications (the unit of the paper's
	// polynomial-expansion cost).
	ZrMul atomic.Int64
	// G1ExpFixedCT counts the G1Exp that took a constant-time walk: the
	// fixed-base tables (FixedBase.Mul, Curve.MulConstTimeEach), the master
	// key's table for g among them. With G1Exp it shows which share of an
	// operation's exponentiations ran no variable-time walk.
	G1ExpFixedCT atomic.Int64
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.G1Exp.Store(0)
	m.GTExp.Store(0)
	m.Pairings.Store(0)
	m.ZrMul.Store(0)
	m.G1ExpFixedCT.Store(0)
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() (g1Exp, gtExp, pairings, zrMul int64) {
	return m.G1Exp.Load(), m.GTExp.Load(), m.Pairings.Load(), m.ZrMul.Load()
}

// SnapshotMap returns the counters keyed by name — the form exporters and
// report writers should consume: adding a counter extends the map instead
// of silently shifting Snapshot's positional 4-tuple under callers.
func (m *Metrics) SnapshotMap() map[string]int64 {
	return map[string]int64{
		"g1_exp":   m.G1Exp.Load(),
		"gt_exp":   m.GTExp.Load(),
		"pairings": m.Pairings.Load(),
		"zr_mul":   m.ZrMul.Load(),
	}
}

// Total returns a single cost figure weighting each primitive roughly by its
// relative latency (pairing ≈ 3 exponentiations ≈ 3000 scalar mults).
func (m *Metrics) Total() int64 {
	g1, gt, pr, zr := m.Snapshot()
	return 3000*pr + 1000*(g1+gt) + zr
}

// The instrumented primitive wrappers below are the only call sites for the
// underlying group operations inside the scheme.

func (s *Scheme) expG1(p *curve.Point, k *big.Int) *curve.Point {
	if s.Metrics != nil {
		s.Metrics.G1Exp.Add(1)
	}
	return s.P.G1.ScalarMultReduced(p, k)
}

// expFixed is expG1 through a precomputed fixed-base table, whose walk is
// constant-time; it counts as the same one G1 exponentiation.
func (s *Scheme) expFixed(fb *curve.FixedBase, k *big.Int) *curve.Point {
	if s.Metrics != nil {
		s.Metrics.G1Exp.Add(1)
		s.Metrics.G1ExpFixedCT.Add(1)
	}
	return fb.Mul(k)
}

// expFixedSecret is expFixed for exponents derived from γ or from a
// broadcast secret k, one per table: the constant-time signed-window walks
// (the same operation sequence and table scans for every scalar), sharing
// one normalisation. Each result counts as one G1 exponentiation.
func (s *Scheme) expFixedSecret(fbs []*curve.FixedBase, ks []*big.Int) []*curve.Point {
	if s.Metrics != nil {
		s.Metrics.G1Exp.Add(int64(len(fbs)))
		s.Metrics.G1ExpFixedCT.Add(int64(len(fbs)))
	}
	return s.P.G1.MulConstTimeEach(fbs, ks)
}

func (s *Scheme) expGT(a *pairing.GT, k *big.Int) *pairing.GT {
	if s.Metrics != nil {
		s.Metrics.GTExp.Add(1)
	}
	return s.P.GTExp(a, k)
}

// expGTFixed is expGT through a precomputed GT table; it counts as the same
// one GT exponentiation.
func (s *Scheme) expGTFixed(t *pairing.GTFixedBase, k *big.Int) *pairing.GT {
	if s.Metrics != nil {
		s.Metrics.GTExp.Add(1)
	}
	return t.Exp(k)
}

func (s *Scheme) pair(p, q *curve.Point) *pairing.GT {
	if s.Metrics != nil {
		s.Metrics.Pairings.Add(1)
	}
	return s.P.Pair(p, q)
}

func (s *Scheme) mulZr(a, b *big.Int) *big.Int {
	if s.Metrics != nil {
		s.Metrics.ZrMul.Add(1)
	}
	return s.P.Zr.Mul(a, b)
}
