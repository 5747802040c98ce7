// Threshold master-secret ECALLs: instead of every enclave holding the full
// MSK via sealed exchange, each holds ONE Feldman-VSS share of γ, and user
// keys are extracted by a quorum through blinded inversion — no single
// enclave ever reconstructs the secret, so compromising one shard (or its
// sealed state) reveals nothing.
//
// Shares move by one protocol, the reshare (Desmedt–Jajodia redistribution,
// Herzberg et al.'s proactive refresh): d+1 holders of the committed
// generation sub-deal their shares to the new holder set, every new holder
// verifies and combines the sub-deals into a pending share, and the share
// is committed once the coordinator has published the new record.
// Bootstrap is the first reshare: the one enclave that ran Setup holds γ as
// the degree-0 sharing f(x) = γ (EcallGenesisShare) and re-shares it to the
// boot members.
//
// Inter-enclave protocol messages (reshare sub-shares, blind round
// contributions, fallback share exports) travel sealed under the
// platform/measurement-bound sealing key: all shard enclaves run the same
// code on the same platform, so they can open each other's blobs while the
// untrusted coordinator relaying them cannot — exactly the trust story the
// sealed-MSK exchange already relied on. Labels bind every blob to its
// purpose, generation/nonce and endpoint indices, so a blob can never be
// replayed into a different protocol step.
package enclave

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/dkg"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
)

// Threshold-mode errors.
var (
	// ErrThresholdMode reports an ECALL that needs the full master secret on
	// an enclave that holds only a threshold share (use the partial/blinded
	// variants instead).
	ErrThresholdMode = errors.New("enclave: enclave holds a threshold share, not the full master secret")
	// ErrNoShare reports a share-based ECALL on an enclave without a share.
	ErrNoShare = errors.New("enclave: no master-secret share installed")
	// ErrShareGeneration reports a share/record generation mismatch.
	ErrShareGeneration = errors.New("enclave: share generation mismatch")
	// ErrNonceReplayed reports a blinded-extraction nonce this enclave has
	// already combined its share under: replaying a round's sealed
	// contributions into a second EcallPartialExtract is refused, so the host
	// cannot farm related partials from one blinding.
	ErrNonceReplayed = errors.New("enclave: extraction nonce already used")
)

// maxUsedNonces bounds the per-enclave replay ledger; beyond it the oldest
// entries are evicted FIFO. Eviction cannot re-enable the attack the ledger
// exists for — labels bind every blob to one (generation, identity, nonce)
// triple regardless — it only bounds enclave memory.
const maxUsedNonces = 4096

// thresholdShare is the enclave-resident threshold state: this enclave's
// share of γ plus the public material needed to verify peers and publish
// blinded partials. It never leaves the enclave except sealed.
type thresholdShare struct {
	gen    uint64
	index  int
	degree int
	value  *big.Int
	comms  []*curve.Point
	base   *curve.Point // g, the extraction base

	// baseTab is the lazily-built fixed-base table for base: every blinded
	// extraction publishes P_i = base^{r_i}, so the per-round exponentiation
	// runs off precomputed windows exactly like the scheme's other
	// long-lived generators. Built on first use — a holder that never
	// serves an extraction never pays for the table.
	baseOnce sync.Once
	baseTab  *curve.FixedBase
}

// extractBase returns the fixed-base table for the share's extraction base.
func (t *thresholdShare) extractBase(g *curve.Curve) *curve.FixedBase {
	t.baseOnce.Do(func() { t.baseTab = g.NewFixedBase(t.base) })
	return t.baseTab
}

// suiteLocked returns the DKG suite over the IBBE commitment base
// h = PK.HPowers[0]; callers hold ie.mu and have checked ie.pk != nil.
func (ie *IBBEEnclave) suiteLocked() *dkg.Suite {
	return dkg.NewSuite(ie.scheme.P, ie.pk.HPowers[0])
}

// Transport labels: every sealed protocol blob is bound to its step. The
// extraction labels additionally bind the share GENERATION (a holder left
// behind by a reshare produces blobs no current peer can open — mixed-
// generation rounds fail loudly instead of combining into a wrong key) and
// the target IDENTITY (a blinding dealt for one id can never be evaluated
// at another, so the host cannot harvest related u_i values and solve for
// the master secret).
func reshareLabel(gen uint64, dealer, target int) []byte {
	return []byte(fmt.Sprintf("dkg-reshare|%d|%d|%d", gen, dealer, target))
}
func blindLabel(gen uint64, id string, nonce []byte, dealer, target int) []byte {
	idh := sha256.Sum256([]byte(id))
	return []byte(fmt.Sprintf("dkg-blind|%d|%x|%x|%d|%d", gen, idh, nonce, dealer, target))
}
func partialLabel(gen uint64, id string, nonce []byte) []byte {
	idh := sha256.Sum256([]byte(id))
	return []byte(fmt.Sprintf("dkg-partial|%d|%x|%x", gen, idh, nonce))
}
func exportLabel(nonce []byte) []byte {
	return []byte(fmt.Sprintf("dkg-export|%x", nonce))
}

// shareBlobLabel seals the persistent per-shard share blob.
var shareBlobLabel = []byte("ibbe-dkg-share")

// encodeShare serialises (generation, index, value) for sealing.
func (ie *IBBEEnclave) encodeShare(gen uint64, index int, v *big.Int) []byte {
	zr := ie.scheme.P.Zr
	out := make([]byte, 12, 12+zr.ByteLen())
	binary.BigEndian.PutUint64(out[:8], gen)
	binary.BigEndian.PutUint32(out[8:12], uint32(index))
	return append(out, zr.ToBytes(v)...)
}

// decodeShare reverses encodeShare.
func (ie *IBBEEnclave) decodeShare(b []byte) (gen uint64, index int, v *big.Int, err error) {
	zr := ie.scheme.P.Zr
	if len(b) != 12+zr.ByteLen() {
		return 0, 0, nil, errors.New("enclave: sealed share has wrong length")
	}
	v, err = zr.FromBytes(b[12:])
	if err != nil {
		return 0, 0, nil, fmt.Errorf("enclave: sealed share value: %w", err)
	}
	return binary.BigEndian.Uint64(b[:8]), int(binary.BigEndian.Uint32(b[8:12])), v, nil
}

// adoptPublicKeyLocked installs the master public key from its wire form if
// the enclave has none yet; callers hold ie.mu for writing.
func (ie *IBBEEnclave) adoptPublicKeyLocked(pkRaw []byte) error {
	if ie.pk != nil {
		return nil
	}
	pk, err := ie.scheme.UnmarshalPublicKey(pkRaw)
	if err != nil {
		return fmt.Errorf("enclave: adopting master public key: %w", err)
	}
	ie.pk = pk
	return nil
}

// EcallAdoptPublicKey installs the master public key on an enclave that
// holds no key material (a threshold-mode shard awaiting its first share).
// Public-key-only operations — partition creation via classic encryption,
// re-keying, coordination — work from here on; nothing secret is donated.
func (ie *IBBEEnclave) EcallAdoptPublicKey(pkRaw []byte) error {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	return ie.adoptPublicKeyLocked(pkRaw)
}

// recordStateLocked parses and cross-checks a DKG record against the
// enclave's public key: the zeroth commitment must equal h^γ = HPowers[1],
// binding the sharing to the master public key. Callers hold ie.mu with
// ie.pk set.
func (ie *IBBEEnclave) recordStateLocked(rec *dkg.Record) (comms []*curve.Point, base *curve.Point, err error) {
	g1 := ie.scheme.P.G1
	comms, err = rec.ParseCommitments(g1)
	if err != nil {
		return nil, nil, err
	}
	if len(ie.pk.HPowers) < 2 || !g1.Equal(comms[0], ie.pk.HPowers[1]) {
		return nil, nil, errors.New("enclave: commitments do not match the master public key")
	}
	base, err = g1.Unmarshal(rec.ExtractBase)
	if err != nil {
		return nil, nil, fmt.Errorf("enclave: extraction base: %w", err)
	}
	return comms, base, nil
}

// EcallGenesisShare turns the one enclave that ran EcallSetup into the
// sole holder of the degree-0 sharing f(x) = γ: it installs γ as the
// generation-0 share at index 1, committed by [h^γ] = PK.HPowers[1] with
// extraction base g, and returns that public genesis record. Bootstrap is
// then the first reshare, from this record to the boot members, through
// the same sub-deal, adopt, publish and commit steps as every epoch's; the
// enclave keeps its MSK until its own EcallCommitReshare drops it.
func (ie *IBBEEnclave) EcallGenesisShare(holder string) (*dkg.Record, error) {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	if ie.msk == nil || ie.pk == nil || len(ie.pk.HPowers) < 2 {
		return nil, ErrEnclaveNotInitialized
	}
	commitment := ie.pk.HPowers[1]
	ie.thr = &thresholdShare{index: 1, value: new(big.Int).Set(ie.msk.Gamma), comms: []*curve.Point{commitment}, base: ie.msk.G}
	g1 := ie.scheme.P.G1
	return &dkg.Record{
		Commitments: [][]byte{g1.Marshal(commitment)},
		ExtractBase: g1.Marshal(ie.msk.G),
		MasterPK:    ie.scheme.MarshalPublicKey(ie.pk),
		Holders:     map[string]int{holder: 1},
	}, nil
}

// EcallRestoreShare reloads a persisted share after a restart: the sealed
// blob (from the published record) must match the record's generation and
// this shard's holder index, and the share must verify against the
// commitments — so a corrupted or substituted store record is rejected
// instead of silently adopted.
func (ie *IBBEEnclave) EcallRestoreShare(rec *dkg.Record, shardID string, sealed []byte) error {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	if err := ie.adoptPublicKeyLocked(rec.MasterPK); err != nil {
		return err
	}
	comms, base, err := ie.recordStateLocked(rec)
	if err != nil {
		return err
	}
	raw, err := ie.enc.Unseal(sealed, shareBlobLabel)
	if err != nil {
		return err
	}
	gen, index, value, err := ie.decodeShare(raw)
	if err != nil {
		return err
	}
	if gen != rec.Generation || index != rec.Index(shardID) {
		return fmt.Errorf("%w: blob is (gen %d, index %d), record expects (gen %d, index %d)",
			ErrShareGeneration, gen, index, rec.Generation, rec.Index(shardID))
	}
	suite := ie.suiteLocked()
	if err := suite.VerifyShare(comms, dkg.Share{Index: index, Value: value}); err != nil {
		return err
	}
	ie.thr = &thresholdShare{gen: gen, index: index, degree: rec.Degree, value: value, comms: comms, base: base}
	ie.pendingThr = nil // a restore IS the commit of whatever was pending
	ie.msk = nil
	return nil
}

// EcallBlindRound is round 1 of a blinded extraction: this holder deals its
// contribution to the quorum's joint blinding — a fresh random ρ shared at
// degree d plus a zero-sharing at degree 2d — sealed per receiving holder,
// bound to this round's (generation, identity, nonce).
func (ie *IBBEEnclave) EcallBlindRound(gen uint64, id string, nonce []byte, quorum []int) (map[int][]byte, error) {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.thr == nil {
		return nil, ErrNoShare
	}
	if ie.thr.gen != gen {
		return nil, fmt.Errorf("%w: holder is at generation %d, round wants %d", ErrShareGeneration, ie.thr.gen, gen)
	}
	if !containsIndex(quorum, ie.thr.index) {
		return nil, fmt.Errorf("enclave: holder %d is not in the quorum %v", ie.thr.index, quorum)
	}
	suite := ie.suiteLocked()
	bd, err := suite.BlindDeal(ie.thr.degree, quorum, rand.Reader)
	if err != nil {
		return nil, err
	}
	zr := ie.scheme.P.Zr
	out := make(map[int][]byte, len(quorum))
	for _, t := range quorum {
		body := append(zr.ToBytes(bd.R[t]), zr.ToBytes(bd.Z[t])...)
		blob, err := ie.enc.Seal(body, blindLabel(ie.thr.gen, id, nonce, ie.thr.index, t))
		if err != nil {
			return nil, err
		}
		out[t] = blob
	}
	return out, nil
}

// markNonceUsed enforces one-time use of an extraction nonce inside the
// enclave (bounded FIFO ledger, its own lock — callers hold ie.mu only for
// reading).
func (ie *IBBEEnclave) markNonceUsed(nonce []byte) error {
	ie.nonceMu.Lock()
	defer ie.nonceMu.Unlock()
	if ie.usedNonces == nil {
		ie.usedNonces = make(map[string]struct{})
	}
	k := string(nonce)
	if _, dup := ie.usedNonces[k]; dup {
		return ErrNonceReplayed
	}
	ie.usedNonces[k] = struct{}{}
	ie.nonceOrder = append(ie.nonceOrder, k)
	if len(ie.nonceOrder) > maxUsedNonces {
		delete(ie.usedNonces, ie.nonceOrder[0])
		ie.nonceOrder = ie.nonceOrder[1:]
	}
	return nil
}

// encodePartial serialises (index, u_i, P_i) for sealed transport to the
// combiner.
func (ie *IBBEEnclave) encodePartial(p *dkg.ExtractPartial) []byte {
	zr := ie.scheme.P.Zr
	out := make([]byte, 4, 4+zr.ByteLen())
	binary.BigEndian.PutUint32(out, uint32(p.Index))
	out = append(out, zr.ToBytes(p.U)...)
	return append(out, ie.scheme.P.G1.Marshal(p.P)...)
}

// decodePartial reverses encodePartial.
func (ie *IBBEEnclave) decodePartial(b []byte) (*dkg.ExtractPartial, error) {
	zr := ie.scheme.P.Zr
	w := zr.ByteLen()
	if len(b) < 4+w {
		return nil, errors.New("enclave: extract partial has wrong length")
	}
	u, err := zr.FromBytes(b[4 : 4+w])
	if err != nil {
		return nil, fmt.Errorf("enclave: extract partial u: %w", err)
	}
	pt, err := ie.scheme.P.G1.Unmarshal(b[4+w:])
	if err != nil {
		return nil, fmt.Errorf("enclave: extract partial point: %w", err)
	}
	return &dkg.ExtractPartial{Index: int(binary.BigEndian.Uint32(b[:4])), U: u, P: pt}, nil
}

// EcallPartialExtract is round 2: this holder aggregates the quorum's blind
// contributions into its blinding share r_i and mask z_i, and produces the
// pair (u_i, P_i) with u_i = r_i·(s_i+H(id)) + z_i and P_i = g^{r_i} —
// SEALED to the combiner enclave, never in host memory: from 2d+1 cleartext
// u_i the host could interpolate r·(γ+H(id)) and, with g^r from the P_i,
// compute the raw user key itself. The nonce is consumed here (one share
// evaluation per round), so replaying a round's sealed contributions cannot
// farm a second partial.
func (ie *IBBEEnclave) EcallPartialExtract(gen uint64, id string, nonce []byte, quorum []int, contribs map[int][]byte) ([]byte, error) {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.thr == nil {
		return nil, ErrNoShare
	}
	if ie.thr.gen != gen {
		return nil, fmt.Errorf("%w: holder is at generation %d, round wants %d", ErrShareGeneration, ie.thr.gen, gen)
	}
	if !containsIndex(quorum, ie.thr.index) {
		return nil, fmt.Errorf("enclave: holder %d is not in the quorum %v", ie.thr.index, quorum)
	}
	if len(contribs) != len(quorum) {
		return nil, fmt.Errorf("enclave: blind round needs a contribution from every quorum member (%d of %d)", len(contribs), len(quorum))
	}
	if err := ie.markNonceUsed(nonce); err != nil {
		return nil, err
	}
	zr := ie.scheme.P.Zr
	w := zr.ByteLen()
	ri, zi := big.NewInt(0), big.NewInt(0)
	for _, dealer := range quorum {
		blob, ok := contribs[dealer]
		if !ok {
			return nil, fmt.Errorf("enclave: missing blind contribution from holder %d", dealer)
		}
		body, err := ie.enc.Unseal(blob, blindLabel(ie.thr.gen, id, nonce, dealer, ie.thr.index))
		if err != nil {
			return nil, err
		}
		if len(body) != 2*w {
			return nil, errors.New("enclave: blind contribution has wrong length")
		}
		r, err := zr.FromBytes(body[:w])
		if err != nil {
			return nil, err
		}
		z, err := zr.FromBytes(body[w:])
		if err != nil {
			return nil, err
		}
		ri = zr.Add(ri, r)
		zi = zr.Add(zi, z)
	}
	u := zr.Add(zr.Mul(ri, zr.Add(ie.thr.value, ie.scheme.HashID(id))), zi)
	// The fixed-base walk is constant-time: r_i blinds this holder's share
	// of the master secret, so the published P_i = base^{r_i} must not leak
	// r_i through the walk's timing or table-access pattern.
	part := &dkg.ExtractPartial{Index: ie.thr.index, U: u, P: ie.thr.extractBase(ie.scheme.P.G1).Mul(ri)}
	return ie.enc.Seal(ie.encodePartial(part), partialLabel(ie.thr.gen, id, nonce))
}

// EcallCombineExtract finishes a blinded extraction INSIDE the coordinating
// enclave: it opens the sealed partials (bound to this round's generation,
// identity and nonce — a stale-generation holder's partial fails to open
// here instead of silently corrupting the key) and folds them into the user
// secret key, which is wrapped for the user (ECIES + enclave signature)
// exactly like EcallExtractUserKey's output and never crosses the boundary
// in the clear. The coordinator needs no share of its own — only the public
// key.
func (ie *IBBEEnclave) EcallCombineExtract(id string, userPub *ecdh.PublicKey, gen uint64, degree int, nonce []byte, sealedPartials [][]byte) (*ProvisionedKey, error) {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.pk == nil {
		return nil, ErrEnclaveNotInitialized
	}
	partials := make([]dkg.ExtractPartial, 0, len(sealedPartials))
	seen := make(map[int]bool, len(sealedPartials))
	for _, blob := range sealedPartials {
		raw, err := ie.enc.Unseal(blob, partialLabel(gen, id, nonce))
		if err != nil {
			return nil, err
		}
		part, err := ie.decodePartial(raw)
		if err != nil {
			return nil, err
		}
		if seen[part.Index] {
			continue
		}
		seen[part.Index] = true
		partials = append(partials, *part)
	}
	suite := ie.suiteLocked()
	d, err := suite.CombineExtract(degree, partials)
	if err != nil {
		return nil, err
	}
	return ie.provisionLocked(id, &ibbe.UserKey{D: d}, userPub)
}

// EcallExportShare seals this enclave's share for a RECOVERY combine: when
// fewer than 2d+1 holders are alive (no blinded quorum) but at least d+1
// are, the survivors export their shares — sealed, bound to the round nonce
// — to one coordinating enclave, which transiently reconstructs γ inside
// and discards it. Degraded but safe: the secret still exists only inside
// enclave code.
func (ie *IBBEEnclave) EcallExportShare(nonce []byte) ([]byte, error) {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.thr == nil {
		return nil, ErrNoShare
	}
	return ie.enc.Seal(ie.encodeShare(ie.thr.gen, ie.thr.index, ie.thr.value), exportLabel(nonce))
}

// EcallRecoverExtract is the degraded-quorum extraction path: verify d+1
// exported shares against the record's commitments, reconstruct γ
// transiently, double-check h^γ against the zeroth commitment, extract the
// user key and wrap it. γ lives only on this call's stack.
func (ie *IBBEEnclave) EcallRecoverExtract(id string, userPub *ecdh.PublicKey, nonce []byte, rec *dkg.Record, blobs [][]byte) (*ProvisionedKey, error) {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.pk == nil {
		return nil, ErrEnclaveNotInitialized
	}
	comms, base, err := ie.recordStateLocked(rec)
	if err != nil {
		return nil, err
	}
	suite := ie.suiteLocked()
	shares := make([]dkg.Share, 0, len(blobs))
	seen := make(map[int]bool, len(blobs))
	for _, blob := range blobs {
		raw, err := ie.enc.Unseal(blob, exportLabel(nonce))
		if err != nil {
			return nil, err
		}
		gen, index, value, err := ie.decodeShare(raw)
		if err != nil {
			return nil, err
		}
		if gen != rec.Generation {
			return nil, fmt.Errorf("%w: exported share is generation %d, record is %d", ErrShareGeneration, gen, rec.Generation)
		}
		if seen[index] {
			continue
		}
		seen[index] = true
		sh := dkg.Share{Index: index, Value: value}
		if err := suite.VerifyShare(comms, sh); err != nil {
			return nil, err
		}
		shares = append(shares, sh)
	}
	gamma, err := suite.Reconstruct(rec.Degree, shares)
	if err != nil {
		return nil, err
	}
	// Constant-time: γ is the reconstructed master secret itself.
	if !ie.scheme.P.G1.Equal(suite.G.ScalarMultConstTime(suite.Base, gamma), comms[0]) {
		return nil, errors.New("enclave: reconstructed secret does not match the committed master secret")
	}
	uk, err := ie.scheme.Extract(&ibbe.MasterSecretKey{G: base, Gamma: gamma}, id)
	if err != nil {
		return nil, err
	}
	return ie.provisionLocked(id, uk, userPub)
}

// EcallSubDeal is a reshare dealer's step: re-share this enclave's ACTIVE
// share at the new degree over the new holder indices. The sub-deal's
// commitments are returned in the clear (they are public; receivers check
// the zeroth one against the old commitments), the sub-shares sealed per
// receiver. A pending (uncommitted) reshare never deals — sub-deals always
// come from the committed generation.
func (ie *IBBEEnclave) EcallSubDeal(newGen uint64, newDegree int, newIndices []int) ([][]byte, map[int][]byte, error) {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.thr == nil {
		return nil, nil, ErrNoShare
	}
	suite := ie.suiteLocked()
	sub, err := suite.SubDeal(dkg.Share{Index: ie.thr.index, Value: ie.thr.value}, newDegree, newIndices, rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	g1 := ie.scheme.P.G1
	comms := make([][]byte, len(sub.Commitments))
	for j, c := range sub.Commitments {
		comms[j] = g1.Marshal(c)
	}
	zr := ie.scheme.P.Zr
	blobs := make(map[int][]byte, len(newIndices))
	for _, sh := range sub.Shares {
		blob, err := ie.enc.Seal(zr.ToBytes(sh.Value), reshareLabel(newGen, ie.thr.index, sh.Index))
		if err != nil {
			return nil, nil, err
		}
		blobs[sh.Index] = blob
	}
	return comms, blobs, nil
}

// EcallAdoptReshare combines the sub-deals of a reshare into this enclave's
// share of the NEW generation, verifying every dealer against the current
// record (each sub-deal's zeroth commitment must equal the dealer's old
// committed share, and the combined zeroth commitment must equal the
// original h^γ — the reshare provably preserves the secret). The new share
// is held PENDING until EcallCommitReshare: the coordinator publishes the
// new record first, and a publish lost to a concurrent epoch bump drops the
// pending share instead of leaving enclaves on an unpublished generation.
// Returns the persistent sealed blob and the combined commitments.
func (ie *IBBEEnclave) EcallAdoptReshare(cur *dkg.Record, newGen uint64, newDegree, newIndex int, dealers []int, subComms map[int][][]byte, blobs map[int][]byte) ([]byte, [][]byte, error) {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	if err := ie.adoptPublicKeyLocked(cur.MasterPK); err != nil {
		return nil, nil, err
	}
	curComms, base, err := ie.recordStateLocked(cur)
	if err != nil {
		return nil, nil, err
	}
	suite := ie.suiteLocked()
	g1 := ie.scheme.P.G1
	zr := ie.scheme.P.Zr
	values := make([]*big.Int, len(dealers))
	allComms := make([][]*curve.Point, len(dealers))
	for k, dealer := range dealers {
		raw, ok := subComms[dealer]
		if !ok {
			return nil, nil, fmt.Errorf("enclave: reshare missing commitments from dealer %d", dealer)
		}
		pts := make([]*curve.Point, len(raw))
		for j, b := range raw {
			if pts[j], err = g1.Unmarshal(b); err != nil {
				return nil, nil, fmt.Errorf("enclave: dealer %d commitment %d: %w", dealer, j, err)
			}
		}
		// The dealer must be re-sharing exactly its committed old share.
		if !g1.Equal(pts[0], suite.CommitmentEval(curComms, dealer)) {
			return nil, nil, fmt.Errorf("enclave: dealer %d re-shares a value inconsistent with generation %d", dealer, cur.Generation)
		}
		blob, ok := blobs[dealer]
		if !ok {
			return nil, nil, fmt.Errorf("enclave: reshare missing sub-share from dealer %d", dealer)
		}
		body, err := ie.enc.Unseal(blob, reshareLabel(newGen, dealer, newIndex))
		if err != nil {
			return nil, nil, err
		}
		v, err := zr.FromBytes(body)
		if err != nil {
			return nil, nil, err
		}
		if err := suite.VerifyShare(pts, dkg.Share{Index: newIndex, Value: v}); err != nil {
			return nil, nil, fmt.Errorf("enclave: dealer %d sub-share: %w", dealer, err)
		}
		values[k] = v
		allComms[k] = pts
	}
	value, err := suite.CombineSubShares(dealers, values)
	if err != nil {
		return nil, nil, err
	}
	combined, err := suite.CombineCommitments(dealers, allComms)
	if err != nil {
		return nil, nil, err
	}
	if !g1.Equal(combined[0], curComms[0]) {
		return nil, nil, errors.New("enclave: reshare changed the committed master secret")
	}
	if err := suite.VerifyShare(combined, dkg.Share{Index: newIndex, Value: value}); err != nil {
		return nil, nil, err
	}
	ie.pendingThr = &thresholdShare{gen: newGen, index: newIndex, degree: newDegree, value: value, comms: combined, base: base}
	sealed, err := ie.enc.Seal(ie.encodeShare(newGen, newIndex, value), shareBlobLabel)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, len(combined))
	for j, c := range combined {
		out[j] = g1.Marshal(c)
	}
	return sealed, out, nil
}

// EcallCommitReshare promotes the pending reshare to the active share once
// the coordinator has durably published the matching record.
func (ie *IBBEEnclave) EcallCommitReshare(newGen uint64) error {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	if ie.pendingThr == nil || ie.pendingThr.gen != newGen {
		return fmt.Errorf("%w: no pending reshare at generation %d", ErrShareGeneration, newGen)
	}
	ie.thr = ie.pendingThr
	ie.pendingThr = nil
	ie.msk = nil
	return nil
}

// EcallDropReshare discards a pending reshare whose publish was superseded
// by a concurrent membership change; the newer epoch runs its own reshare.
func (ie *IBBEEnclave) EcallDropReshare(newGen uint64) {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	if ie.pendingThr != nil && ie.pendingThr.gen == newGen {
		ie.pendingThr = nil
	}
}

// EcallWipeShare erases all threshold state — called on holders drained out
// of the holder set, so a superseded share cannot later be combined with
// old peers into the secret (proactive security of the reshare).
func (ie *IBBEEnclave) EcallWipeShare() {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	ie.thr = nil
	ie.pendingThr = nil
	ie.msk = nil // a bootstrap dealer quarantined before its commit
}

// HasMasterSecret reports whether the enclave holds the FULL master secret
// (legacy sealed-exchange mode). Threshold-mode enclaves return false.
func (ie *IBBEEnclave) HasMasterSecret() bool {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	return ie.msk != nil
}

// ShareInfo reports the active threshold share's generation and index
// (ok=false when no share is installed).
func (ie *IBBEEnclave) ShareInfo() (gen uint64, index int, ok bool) {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.thr == nil {
		return 0, 0, false
	}
	return ie.thr.gen, ie.thr.index, true
}

func containsIndex(set []int, i int) bool {
	for _, v := range set {
		if v == i {
			return true
		}
	}
	return false
}
