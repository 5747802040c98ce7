// Package ibbe implements the Delerablée identity-based broadcast
// encryption scheme (ASIACRYPT 2007) instantiated on the Type-A symmetric
// pairing, together with the IBBE-SGX complexity cuts of Contiu et al.
// (DSN 2018, Appendix A):
//
//   - EncryptClassic is the traditional public-key-only encryption whose C2
//     computation expands a polynomial of quadratic cost (paper eq. 4).
//   - EncryptMSK uses the master secret γ directly (paper eq. 3) and is
//     linear in the receiver set — the cut enabled by keeping MSK inside an
//     SGX enclave.
//   - AddUser / RemoveUser / Rekey are the O(1) dynamic membership
//     operations of Appendix A, sections E–G, built on the C3 augmentation
//     (eq. 5).
//   - AddUsersState / RemoveUsersState / RekeyState are the same operations
//     over a partition's exponent state (k, Π): every header point comes off
//     the constant-time fixed-base tables of h and w instead of raising the
//     previous header to a new exponent.
//
// The scheme is stateless: all state lives in the key, ciphertext and
// exponent-state values passed in and out, which is what lets the enclave
// layer seal and restore them freely.
package ibbe

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ff"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// Errors returned by scheme operations.
var (
	// ErrGroupTooLarge reports a receiver set exceeding the m fixed at setup.
	ErrGroupTooLarge = errors.New("ibbe: receiver set exceeds maximal group size")
	// ErrNotMember reports a decryption attempt by an identity outside S.
	ErrNotMember = errors.New("ibbe: identity is not in the receiver set")
	// ErrEmptyGroup reports an empty receiver set.
	ErrEmptyGroup = errors.New("ibbe: receiver set is empty")
	// ErrBadKey reports malformed key material.
	ErrBadKey = errors.New("ibbe: malformed key material")
)

// Scheme binds the IBBE algorithms to a pairing parameter set. Metrics, when
// non-nil, receives operation counts (used by the Table I reproduction).
//
// Every operation runs one arithmetic: Montgomery limbs for Z_r, fixed-base
// and multi-exponentiation tables for G1, the windowed GT ladder and the
// projective Miller loop. The textbook big.Int transcription it is tested
// against bit for bit is package ibberef.
type Scheme struct {
	P       *pairing.Params
	Metrics *Metrics

	hash idHasher // H's digest width and reducer modulo r − 1
}

// NewScheme returns an IBBE scheme over the given pairing parameters, with
// its identity-hash state built.
func NewScheme(p *pairing.Params) *Scheme { return &Scheme{P: p, hash: newIDHasher(p.R)} }

// MasterSecretKey is MSK = (g, γ). It must never leave the trusted boundary;
// the enclave package enforces that.
//
// Like PublicKey it lazily accretes a fixed-base table for g on the first
// Extract, so it must be shared by pointer, never copied by value. The table
// is as secret as g and is never serialised.
type MasterSecretKey struct {
	G     *curve.Point
	Gamma *big.Int

	gOnce sync.Once
	g     *curve.FixedBase // fixed-base table for G (USK = g^{1/(γ+H(u))})
}

// fbG returns the lazily-built fixed-base table for msk.G.
func (s *Scheme) fbG(msk *MasterSecretKey) *curve.FixedBase {
	msk.gOnce.Do(func() { msk.g = s.P.G1.NewFixedBase(msk.G) })
	return msk.g
}

// PublicKey is PK = (w, v, h, h^γ, …, h^γ^m) with w = g^γ and v = e(g, h).
// HPowers[i] holds h^(γ^i), so HPowers[0] = h and len(HPowers) = m+1.
//
// A PublicKey lazily accretes precomputed fixed-base and multi-exponentiation
// tables on first use (see pkPrecomp); because of the embedded sync.Once
// guards it must be shared by pointer, never copied by value — which is how
// every layer above already handles it.
type PublicKey struct {
	W       *curve.Point
	V       *pairing.GT
	HPowers []*curve.Point

	pre pkPrecomp
}

// pkPrecomp holds the per-public-key table caches the operations run on.
// Each table is built at most once (computed lazily under its own sync.Once,
// so e.g. an encrypt-only workload never pays for the Straus table) and then
// reused across every operation on the key — including the per-partition
// ECALLs core.Manager issues concurrently, for which Once provides the
// memory barrier.
type pkPrecomp struct {
	wOnce sync.Once
	w     *curve.FixedBase // fixed-base table for W = g^γ (C1 = w^−k)
	hOnce sync.Once
	h     *curve.FixedBase // fixed-base table for HPowers[0] = h (C2, C3)
	vOnce sync.Once
	v     *pairing.GTFixedBase // fixed-base table for v = e(g, h) (bk = v^k)
	tOnce sync.Once
	t     *curve.MultiExpTable // odd multiples of every HPowers[i] (Straus)
}

// fbW returns the lazily-built fixed-base table for pk.W.
func (s *Scheme) fbW(pk *PublicKey) *curve.FixedBase {
	pk.pre.wOnce.Do(func() { pk.pre.w = s.P.G1.NewFixedBase(pk.W) })
	return pk.pre.w
}

// fbH returns the lazily-built fixed-base table for h = pk.HPowers[0].
func (s *Scheme) fbH(pk *PublicKey) *curve.FixedBase {
	pk.pre.hOnce.Do(func() { pk.pre.h = s.P.G1.NewFixedBase(pk.HPowers[0]) })
	return pk.pre.h
}

// fbV returns the lazily-built GT fixed-base table for pk.V.
func (s *Scheme) fbV(pk *PublicKey) *pairing.GTFixedBase {
	pk.pre.vOnce.Do(func() { pk.pre.v = s.P.NewGTFixedBase(pk.V) })
	return pk.pre.v
}

// hTable returns the lazily-built Straus multi-exponentiation table over the
// full HPowers vector.
func (s *Scheme) hTable(pk *PublicKey) *curve.MultiExpTable {
	pk.pre.tOnce.Do(func() { pk.pre.t = s.P.G1.NewMultiExpTable(pk.HPowers) })
	return pk.pre.t
}

// MaxGroupSize returns m, the largest receiver set this key supports.
func (pk *PublicKey) MaxGroupSize() int { return len(pk.HPowers) - 1 }

// UserKey is USK_u = g^(1/(γ+H(u))).
type UserKey struct {
	D *curve.Point
}

// Ciphertext is the broadcast header (C1, C2) of Delerablée's scheme plus
// the C3 = h^Π(γ+H(u)) augmentation (paper eq. 5) that makes removal and
// re-keying O(1). C3 is public: it is computable from PK alone.
type Ciphertext struct {
	C1, C2, C3 *curve.Point
}

// Clone returns a deep copy, so membership operations can be non-destructive.
func (c *Ciphertext) Clone() *Ciphertext {
	return &Ciphertext{C1: c.C1.Clone(), C2: c.C2.Clone(), C3: c.C3.Clone()}
}

// PartitionState is a partition's exponent state: its broadcast secret k and
// Π = Π_{u∈S}(γ+H(u)) over its receiver set S. Every value of the partition
// is a power of a long-lived generator in it — C1 = w^−k, C2 = h^{k·Π},
// C3 = h^Π, bk = v^k — so whoever keeps it can derive each membership op's
// header through the fixed-base tables. Π is as secret as γ: the state must
// never leave the enclave in the clear.
type PartitionState struct {
	K, Pi *big.Int
}

// BroadcastKey is bk = v^k ∈ GT; its hash is used as a symmetric key.
type BroadcastKey = pairing.GT

// Setup runs the system setup for maximal group size m: it draws
// MSK = (g, γ) and computes PK = (w, v, h, h^γ, …, h^γ^m). Cost is O(m)
// G1 exponentiations — the paper's Fig. 6a measures exactly this loop.
func (s *Scheme) Setup(m int, rng io.Reader) (*MasterSecretKey, *PublicKey, error) {
	if m < 1 {
		return nil, nil, errors.New("ibbe: maximal group size must be at least 1")
	}
	g1 := s.P.G1
	g, err := g1.RandPoint(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing g: %w", err)
	}
	h, err := g1.RandPoint(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing h: %w", err)
	}
	gamma, err := g1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing γ: %w", err)
	}
	msk := &MasterSecretKey{G: g, Gamma: gamma}

	pk := &PublicKey{V: s.pair(g, h)}
	// γ and every γ^i are secret exponents. w = g^γ takes the
	// constant-time walk over msk's table for g, which Extract then reuses,
	// and the powers take it over one fixed-base table for h (≈ bits(r)/6
	// mixed additions each, no doublings), sharing a single normalisation.
	// The h table is kept on the public key, pre-warming the membership ops.
	pk.W = s.expFixed(s.fbG(msk), gamma)
	fb := s.P.G1.NewFixedBase(h)
	fbs := make([]*curve.FixedBase, m+1)
	exps := make([]*big.Int, m+1)
	acc := big.NewInt(1)
	for i := 0; i <= m; i++ {
		fbs[i], exps[i] = fb, acc
		acc = s.P.Zr.Mul(acc, gamma)
	}
	pk.HPowers = s.expFixedSecret(fbs, exps)
	pk.pre.hOnce.Do(func() { pk.pre.h = fb })
	return msk, pk, nil
}

// Extract derives the user secret key USK = g^(1/(γ+H(u))). This is the
// O(1) key-extraction operation benchmarked in Fig. 6b. The exponentiation is the constant-time walk over msk's fixed-base table for
// g, built on the first extraction: ≈ bits(r)/6 table additions and no
// doublings per key.
func (s *Scheme) Extract(msk *MasterSecretKey, id string) (*UserKey, error) {
	if msk == nil || msk.G == nil || msk.Gamma == nil {
		return nil, ErrBadKey
	}
	zr := s.P.Zr
	den := zr.Add(msk.Gamma, s.HashID(id))
	inv, err := zr.Inv(den)
	if err != nil {
		// Happens only if H(u) = −γ, probability ~ 2^−160.
		return nil, fmt.Errorf("ibbe: identity collides with master secret: %w", err)
	}
	return &UserKey{D: s.expFixed(s.fbG(msk), inv)}, nil
}

// EncryptMSK generates a fresh broadcast key bk = v^k and header for the
// receiver identities ids, using the master secret to compute
// C2 = h^(k·Π(γ+H(u))) directly (paper eq. 3). Complexity: O(|S|) Z_r
// multiplications plus a constant number of exponentiations — the IBBE-SGX
// complexity cut.
func (s *Scheme) EncryptMSK(msk *MasterSecretKey, pk *PublicKey, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	bk, ct, _, err := s.EncryptMSKState(msk, pk, ids, rng)
	return bk, ct, err
}

// EncryptMSKState is EncryptMSK that also returns the partition's exponent
// state (k, Π), for the state-taking membership operations below.
func (s *Scheme) EncryptMSKState(msk *MasterSecretKey, pk *PublicKey, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, *PartitionState, error) {
	if len(ids) == 0 {
		return nil, nil, nil, ErrEmptyGroup
	}
	if len(ids) > pk.MaxGroupSize() {
		return nil, nil, nil, fmt.Errorf("%w: %d > %d", ErrGroupTooLarge, len(ids), pk.MaxGroupSize())
	}
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	st := &PartitionState{K: k, Pi: s.prodGammaPlusHash(msk.Gamma, ids)}
	bk, ct := s.headerFromState(pk, st)
	return bk, ct, st, nil
}

// headerFromState derives a partition's whole header and broadcast key from
// its exponent state: C1 = w^−k, C2 = h^{k·Π}, C3 = h^Π, bk = v^k. bk takes
// the (variable-time) GT table of v.
func (s *Scheme) headerFromState(pk *PublicKey, st *PartitionState) (*BroadcastKey, *Ciphertext) {
	return s.expGTFixed(s.fbV(pk), st.K), s.stateHeader(pk, st, nil)
}

// stateHeader derives the header points of st: C2 = h^{k·Π}, C3 = h^Π and
// C1 = w^−k, or a copy of keepC1 when given (an add keeps k, and with it C1).
// Every point takes the constant-time fixed-base walk over
// the h and w tables, and they share one normalisation.
func (s *Scheme) stateHeader(pk *PublicKey, st *PartitionState, keepC1 *curve.Point) *Ciphertext {
	fbH := s.fbH(pk)
	tables, exps := []*curve.FixedBase{fbH, fbH}, []*big.Int{s.mulZr(st.K, st.Pi), st.Pi}
	if keepC1 == nil {
		tables, exps = append(tables, s.fbW(pk)), append(exps, s.P.Zr.Neg(st.K))
	}
	pts := s.expFixedSecret(tables, exps)
	if keepC1 != nil {
		return &Ciphertext{C1: keepC1.Clone(), C2: pts[0], C3: pts[1]}
	}
	return &Ciphertext{C1: pts[2], C2: pts[0], C3: pts[1]}
}

// EncryptClassic is the traditional IBBE encryption that only uses PK: it
// expands Π(x + H(u)) into coefficients (quadratic cost, paper eq. 4) and
// assembles C2 from the h^γ^i powers. This is the paper's raw-IBBE baseline
// of Fig. 2.
func (s *Scheme) EncryptClassic(pk *PublicKey, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	if len(ids) == 0 {
		return nil, nil, ErrEmptyGroup
	}
	if len(ids) > pk.MaxGroupSize() {
		return nil, nil, fmt.Errorf("%w: %d > %d", ErrGroupTooLarge, len(ids), pk.MaxGroupSize())
	}
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	coeffs := s.expandProductPoly(ids) // O(n²)
	// C3 = h^Π(γ+H(u)) = Σ_i coeffs[i]·HPowers[i] in additive notation.
	c3 := s.multiExpHPowers(pk, coeffs, 0)
	ct := &Ciphertext{
		C1: s.expFixed(s.fbW(pk), s.P.Zr.Neg(k)),
		C2: s.expG1(c3, k), // fresh base: no table pays off for one use
		C3: c3,
	}
	bk := s.expGTFixed(s.fbV(pk), k)
	return bk, ct, nil
}

// Decrypt recovers bk for member id with secret key usk, given the receiver
// list ids and the header. Following Delerablée:
//
//	bk = ( e(C1, h^{p_{i,S}(γ)}) · e(USK_i, C2) )^{1/Δ},
//	p_{i,S}(x) = (Π_{j≠i}(x+H(u_j)) − Δ)/x,  Δ = Π_{j≠i} H(u_j).
//
// The polynomial expansion costs O(|S|²) — the cost the partitioning
// mechanism of the paper bounds by the partition size (Fig. 8b).
func (s *Scheme) Decrypt(pk *PublicKey, id string, usk *UserKey, ids []string, ct *Ciphertext) (*BroadcastKey, error) {
	if usk == nil || usk.D == nil {
		return nil, ErrBadKey
	}
	// The receiver list comes from the store: a list the key cannot cover
	// must fail here, not index past the public key's powers.
	if len(ids) > pk.MaxGroupSize() {
		return nil, fmt.Errorf("%w: %d > %d", ErrGroupTooLarge, len(ids), pk.MaxGroupSize())
	}
	others := make([]string, 0, len(ids))
	found := false
	for _, u := range ids {
		if u == id && !found {
			found = true
			continue
		}
		others = append(others, u)
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotMember, id)
	}
	zr := s.P.Zr

	if len(others) == 0 {
		// Singleton group: p ≡ 0 and Δ = 1, so bk = e(USK, C2).
		return s.pair(usk.D, ct.C2), nil
	}

	coeffs := s.expandProductPoly(others) // degree n−1 polynomial, O(n²)
	delta := coeffs[0]
	// h^{p(γ)} = Σ_{l≥1} coeffs[l] · h^{γ^{l−1}}.
	hp := s.multiExpHPowers(pk, coeffs[1:], 0)

	num := s.P.GTMul(s.pair(ct.C1, hp), s.pair(usk.D, ct.C2))
	dInv, err := zr.Inv(delta)
	if err != nil {
		return nil, fmt.Errorf("ibbe: degenerate receiver set: %w", err)
	}
	return s.expGT(num, dInv), nil
}

// AddUser extends the receiver set of ct by id in O(1) using the master
// secret: C2 ← C2^(γ+H(u)), C3 ← C3^(γ+H(u)). The broadcast key is
// unchanged — joining members may read prior content (paper §A-E).
//
// AddUser, AddUsers, RemoveUser, RemoveUsers and Rekey are the stateless
// forms: they raise the previous header to a new exponent with the
// variable-time walk and need no exponent state. The enclave keeps them for
// callers holding only a ciphertext; partitions whose state it sealed take
// AddUsersState / RemoveUsersState / RekeyState, which produce the same
// values.
func (s *Scheme) AddUser(msk *MasterSecretKey, ct *Ciphertext, id string) *Ciphertext {
	return s.AddUsers(msk, ct, []string{id})
}

// AddUsers extends the receiver set of ct by every id in ids with a constant
// number of exponentiations for the whole batch: the per-user exponents
// (γ+H(u)) are folded into one Z_r product before touching the curve, so a
// batch of n joins costs n Z_r multiplications plus the same two G1
// exponentiations a single AddUser costs. The broadcast key is unchanged,
// exactly as in the one-user operation (paper §A-E).
func (s *Scheme) AddUsers(msk *MasterSecretKey, ct *Ciphertext, ids []string) *Ciphertext {
	e := s.prodGammaPlusHash(msk.Gamma, ids)
	return &Ciphertext{
		C1: ct.C1.Clone(),
		C2: s.expG1(ct.C2, e),
		C3: s.expG1(ct.C3, e),
	}
}

// RemoveUsers revokes every id in ids from ct and re-keys, with a constant
// number of exponentiations for the whole batch (paper §A-F generalised):
// the divisors (γ+H(u)) are multiplied in Z_r, inverted once, and applied to
// C3 in a single exponentiation, after which a fresh k yields the rotated
// header and broadcast key. The caller must guarantee every id is currently
// in the receiver set; the partition layer tracks membership.
func (s *Scheme) RemoveUsers(msk *MasterSecretKey, pk *PublicKey, ct *Ciphertext, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	if len(ids) == 0 {
		return s.Rekey(pk, ct, rng)
	}
	zr := s.P.Zr
	den := s.prodGammaPlusHash(msk.Gamma, ids)
	inv, err := zr.Inv(den)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: identity collides with master secret: %w", err)
	}
	c3 := s.expG1(ct.C3, inv)
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	bk, out := s.rotateHeader(pk, c3, k)
	return bk, out, nil
}

// rotateHeader assembles the rotated header (C1 = w^−k, C2 = C3^k) and fresh
// broadcast key bk = v^k for an established C3 — the shared tail of Rekey
// and RemoveUsers. C1 and bk ride the w and v fixed-base tables;
// C2's base C3 changes every call, so it takes the generic windowed path.
func (s *Scheme) rotateHeader(pk *PublicKey, c3 *curve.Point, k *big.Int) (*BroadcastKey, *Ciphertext) {
	out := &Ciphertext{C1: s.expFixed(s.fbW(pk), s.P.Zr.Neg(k)), C2: s.expG1(c3, k), C3: c3}
	return s.expGTFixed(s.fbV(pk), k), out
}

// RemoveUser revokes id and re-keys in O(1) using the master secret
// (paper §A-F): C3 ← C3^(1/(γ+H(u))), then a fresh k gives
// C1 = w^−k, C2 = C3^k, bk = v^k.
// The caller must guarantee id is currently in the receiver set; the
// partition layer tracks membership.
func (s *Scheme) RemoveUser(msk *MasterSecretKey, pk *PublicKey, ct *Ciphertext, id string, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	return s.RemoveUsers(msk, pk, ct, []string{id}, rng)
}

// Rekey draws a fresh broadcast key for an unchanged receiver set in O(1)
// (paper §A-G). Only PK and the public C3 are needed.
func (s *Scheme) Rekey(pk *PublicKey, ct *Ciphertext, rng io.Reader) (*BroadcastKey, *Ciphertext, error) {
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	bk, out := s.rotateHeader(pk, ct.C3.Clone(), k)
	return bk, out, nil
}

// AddUsersState is AddUsers over the partition's exponent state:
// Π' = Π·Π_{u∈ids}(γ+H(u)) with k unchanged, so C1 and the broadcast key stay
// as they are and only C2 = h^{k·Π'} and C3 = h^{Π'} are recomputed, off the
// h table. ct is the partition's current header, whose C1 is kept; when it is
// the header of st, the result equals AddUsers(msk, ct, ids) bit for bit.
func (s *Scheme) AddUsersState(msk *MasterSecretKey, pk *PublicKey, ct *Ciphertext, st *PartitionState, ids []string) (*Ciphertext, *PartitionState) {
	next := &PartitionState{K: st.K, Pi: s.mulZr(st.Pi, s.prodGammaPlusHash(msk.Gamma, ids))}
	return s.stateHeader(pk, next, ct.C1), next
}

// RemoveUsersState is RemoveUsers over the partition's exponent state:
// Π' = Π·(Π_{u∈ids}(γ+H(u)))^−1, then a fresh k and the whole header from
// (k, Π'). With the same rng it draws the same k as RemoveUsers and returns
// the same header and broadcast key.
func (s *Scheme) RemoveUsersState(msk *MasterSecretKey, pk *PublicKey, st *PartitionState, ids []string, rng io.Reader) (*BroadcastKey, *Ciphertext, *PartitionState, error) {
	if len(ids) == 0 {
		return s.RekeyState(pk, st, rng)
	}
	inv, err := s.P.Zr.Inv(s.prodGammaPlusHash(msk.Gamma, ids))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ibbe: identity collides with master secret: %w", err)
	}
	return s.RekeyState(pk, &PartitionState{Pi: s.mulZr(st.Pi, inv)}, rng)
}

// RekeyState is Rekey over the partition's exponent state: the same Π under
// a fresh k. Only st.Pi is read.
func (s *Scheme) RekeyState(pk *PublicKey, st *PartitionState, rng io.Reader) (*BroadcastKey, *Ciphertext, *PartitionState, error) {
	k, err := s.P.G1.RandScalar(rng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ibbe: drawing k: %w", err)
	}
	next := &PartitionState{K: k, Pi: st.Pi}
	bk, ct := s.headerFromState(pk, next)
	return bk, ct, next, nil
}

// expandProductPoly returns the coefficients a_0..a_n of
// Π_{u∈ids}(x + H(u)), with a_n = 1. This is the quadratic polynomial
// expansion at the heart of both classic encryption and user decryption.
// The whole O(n²) recurrence runs in the Montgomery limb domain of Z_r,
// updated in place from the top coefficient downward so each round is one
// append plus n multiply-accumulates on fixed-width limb values: the hashes
// arrive in Montgomery form, the coefficients convert out once at the end,
// and the n²/2 interior multiplications never touch big.Int. Metrics still
// count one Z_r multiplication per interior step, so the Table I complexity
// shapes are unchanged.
func (s *Scheme) expandProductPoly(ids []string) []*big.Int {
	m := s.P.Zr.Mont()
	coeffs := make([]ff.Fel, 1, len(ids)+1)
	m.SetOne(&coeffs[0])
	var t, h ff.Fel
	for _, id := range ids {
		s.hashMont(&h, id)
		n := len(coeffs)
		if s.Metrics != nil {
			s.Metrics.ZrMul.Add(int64(n)) // one mul per existing coefficient
		}
		var top ff.Fel
		coeffs = append(coeffs, top)
		coeffs[n] = coeffs[n-1] // leading coefficient stays 1
		for i := n - 1; i >= 1; i-- {
			m.Mul(&t, &coeffs[i], &h)
			m.Add(&coeffs[i], &t, &coeffs[i-1])
		}
		m.Mul(&coeffs[0], &coeffs[0], &h)
	}
	out := make([]*big.Int, len(coeffs))
	for i := range coeffs {
		out[i] = m.ToBig(&coeffs[i])
	}
	return out
}

// prodGammaPlusHash returns Π_{u∈ids} (γ + H(u)) mod r — the linear-cost
// exponent aggregation of EncryptMSK, AddUsers and RemoveUsers. It
// accumulates in the Montgomery limb domain of Z_r over Montgomery-form
// hashes, allocates nothing per identity and counts one Z_r multiplication
// per identity.
func (s *Scheme) prodGammaPlusHash(gamma *big.Int, ids []string) *big.Int {
	m := s.P.Zr.Mont()
	var acc, g, t ff.Fel
	m.SetOne(&acc)
	m.FromBig(&g, gamma)
	for _, id := range ids {
		s.hashMont(&t, id)
		m.Add(&t, &t, &g)
		m.Mul(&acc, &acc, &t)
	}
	if s.Metrics != nil {
		s.Metrics.ZrMul.Add(int64(len(ids)))
	}
	return m.ToBig(&acc)
}

// multiExpHPowers computes Σ_i coeffs[i] · HPowers[i+offset].
//
// It runs the interleaved Straus evaluation over the public key's
// precomputed odd-multiple table: one shared doubling chain for every base
// plus one batched affine addition per non-zero w-NAF digit, instead of a
// full scalar multiplication per coefficient. Metrics still count one G1
// exponentiation per non-zero coefficient — the complexity the Table I
// reproduction asserts is about operation counts, not their unit price.
func (s *Scheme) multiExpHPowers(pk *PublicKey, coeffs []*big.Int, offset int) *curve.Point {
	if s.Metrics != nil {
		nz := int64(0)
		for _, c := range coeffs {
			if c.Sign() != 0 {
				nz++
			}
		}
		s.Metrics.G1Exp.Add(nz)
	}
	return s.hTable(pk).MultiExp(coeffs, offset)
}
