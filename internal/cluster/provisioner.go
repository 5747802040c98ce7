// Key provisioning is the one decision that shapes the cluster's whole
// trust story: what secret material lands on a freshly minted shard. The
// KeyProvisioner interface pins that decision behind one call surface with
// two implementations — the legacy sealed-MSK exchange (every enclave holds
// the full master secret) and threshold DKG (every enclave holds one
// Feldman-VSS share; the full secret exists nowhere after bootstrap).
package cluster

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/dkg"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// ProvisioningMode selects how shards obtain master-key material.
type ProvisioningMode string

const (
	// ProvisionSealed is the legacy mode: the first shard runs EcallSetup
	// and every later shard EcallRestores the sealed master-secret blob.
	ProvisionSealed ProvisioningMode = "sealed"
	// ProvisionThreshold is DKG mode: the master secret is Feldman-shared
	// across the member enclaves at bootstrap and reshared on every
	// membership epoch; no enclave keeps the full secret.
	ProvisionThreshold ProvisioningMode = "threshold"
)

// ErrReshareSuperseded reports a reshare abandoned because the membership
// epoch moved on mid-protocol; the newer epoch runs its own reshare, so the
// error is expected under churn and callers treat it as benign.
var ErrReshareSuperseded = errors.New("cluster: reshare superseded by a newer membership epoch")

// ProvisionerStatus is the operator-facing view of the provisioning state,
// served by the /admin/cluster/v1/dkg endpoint.
type ProvisionerStatus struct {
	// Mode is "sealed" or "threshold".
	Mode string `json:"mode"`
	// Generation is the committed sharing's generation (threshold only).
	Generation uint64 `json:"generation,omitempty"`
	// Degree is the sharing polynomial degree d (threshold only).
	Degree int `json:"degree,omitempty"`
	// Quorum (2d+1) is the holder count a blinded extraction needs; Recovery
	// (d+1) is the floor below which the secret is unrecoverable.
	Quorum   int `json:"quorum,omitempty"`
	Recovery int `json:"recovery,omitempty"`
	// Holders are the share-holding shard IDs, sorted.
	Holders []string `json:"holders,omitempty"`
	// Reshares counts the epoch reshares completed since this process
	// started; bootstrap's first reshare is not one of them.
	Reshares uint64 `json:"reshares,omitempty"`
}

// ExtractFunc derives a user's wrapped key for /provision: the extraction
// path a shard serves, fixed when the shard is minted.
type ExtractFunc func(id string, userPub *ecdh.PublicKey) (*enclave.ProvisionedKey, error)

// KeyProvisioner is the single call surface for master-key provisioning;
// once the cluster has built one it never branches on the mode again. Its
// six methods: Provision when a shard enclave is minted, Complete once the
// bootstrap member set is fully minted, OnMembership after each membership
// change reaches the shards, Stamp on every membership record the cluster
// publishes, and PublicKey and Status for the operator surfaces.
//
// Implementations must be safe for concurrent use; the extraction paths
// Provision hands out in particular race shard HTTP handlers against
// membership transitions.
type KeyProvisioner interface {
	// Provision installs key material on a freshly minted shard enclave —
	// the full sealed secret (sealed mode), a restored share (threshold
	// restart), or just the master public key (threshold runtime mint — a
	// new shard becomes a holder only at the next reshare, so a full-secret
	// blob can never leak onto an unproven member) — and returns the
	// shard's extraction path. Sealed mode extracts in the shard's own
	// enclave; threshold mode runs the blinded-quorum protocol (2d+1 live
	// holders) or the degraded recover path (d+1) with the shard's enclave
	// as combiner, so extraction survives the loss of any d holders.
	Provision(id string, encl *enclave.IBBEEnclave) (ExtractFunc, error)
	// Complete finishes bootstrap after the initial member set is minted.
	// In threshold mode bootstrap is the first reshare: the (single,
	// transient) dealer holds γ as the degree-0 sharing f(x) = γ and
	// reshares it to the members like any epoch's reshare — sub-deal,
	// verify and adopt, publish in the fenced membership record, commit —
	// and its own commit drops the full secret.
	Complete(ctx context.Context) error
	// OnMembership runs after membership m is durable and installed on the
	// shards. Threshold mode reshares to the new member set and publishes
	// the new record under m's epoch; ErrReshareSuperseded is benign.
	OnMembership(ctx context.Context, m *Membership) error
	// PublicKey returns the master public key (nil before bootstrap).
	PublicKey() *ibbe.PublicKey
	// Stamp writes the provisioner's key material into a membership record
	// about to be published: the sealed master key in sealed mode, a
	// snapshot of the committed DKG record in threshold mode (each nil
	// until there is one). The bootstrap publish and every successor carry
	// it, so a restart restores the key instead of minting anew and a crash
	// mid-reshare never loses the share state.
	Stamp(rec *membership.Record)
	// Status reports the operator-facing provisioning state.
	Status() ProvisionerStatus
}

// ---------------------------------------------------------------------------
// Sealed-exchange provisioner (legacy mode).

// sealedProvisioner reproduces the original behaviour: the first Provision
// runs EcallSetup, every later one EcallRestores the sealed blob. Built from
// a persisted key, every Provision restores it.
type sealedProvisioner struct {
	capacity int

	mu       sync.Mutex
	key      *membership.MasterKey // nil until the first Provision runs EcallSetup
	masterPK *ibbe.PublicKey
}

func newSealedProvisioner(capacity int, scheme *ibbe.Scheme, key *membership.MasterKey) (*sealedProvisioner, error) {
	p := &sealedProvisioner{capacity: capacity}
	if key != nil {
		pk, err := scheme.UnmarshalPublicKey(key.PublicKey)
		if err != nil {
			return nil, fmt.Errorf("cluster: persisted master key: %w", err)
		}
		p.key, p.masterPK = key, pk
	}
	return p, nil
}

func (p *sealedProvisioner) Provision(id string, encl *enclave.IBBEEnclave) (ExtractFunc, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.key == nil {
		pk, sealed, err := encl.EcallSetup(p.capacity)
		if err != nil {
			return nil, err
		}
		p.key = &membership.MasterKey{SealedMSK: sealed, PublicKey: encl.Scheme().MarshalPublicKey(pk)}
		p.masterPK = pk
	} else if err := encl.EcallRestore(p.key.SealedMSK, p.masterPK); err != nil {
		return nil, fmt.Errorf("cluster: sharing master secret with %s: %w", id, err)
	}
	return encl.EcallExtractUserKey, nil
}

func (p *sealedProvisioner) Complete(context.Context) error { return nil }

func (p *sealedProvisioner) OnMembership(context.Context, *Membership) error { return nil }

func (p *sealedProvisioner) PublicKey() *ibbe.PublicKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.masterPK
}

func (p *sealedProvisioner) Stamp(rec *membership.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rec.MasterKey = p.key
}

func (p *sealedProvisioner) Status() ProvisionerStatus {
	return ProvisionerStatus{Mode: string(ProvisionSealed)}
}

// ---------------------------------------------------------------------------
// Threshold-DKG provisioner.

// thresholdProvisioner holds the cluster-side (untrusted) half of the DKG:
// it relays sealed protocol blobs between shard enclaves and publishes the
// public record — it never sees a share or the secret. All state mutation
// happens under p.mu; an extraction runs on a snapshot taken under it (see
// extractVia for why that never combines partials from different
// polynomials).
type thresholdProvisioner struct {
	capacity int
	scheme   *ibbe.Scheme
	store    storage.Store
	live     func(id string) bool
	epoch    func() uint64

	// beforePublish, when set (tests), runs right before a reshare's record
	// publish — the window where a concurrent epoch bump must abort the
	// reshare cleanly.
	beforePublish func()

	// obs, when set, receives reshare phase durations, the committed
	// generation gauge and the reshare counter.
	obs *clusterObs

	mu       sync.Mutex
	encls    map[string]*enclave.IBBEEnclave
	rec      *dkg.Record // committed sharing (nil until bootstrap/restart)
	masterPK *ibbe.PublicKey
	dealer   string // bootstrap dealer (holds full MSK until Complete)
	reshares uint64
}

func newThresholdProvisioner(capacity int, scheme *ibbe.Scheme, store storage.Store, live func(string) bool, epoch func() uint64, rec *dkg.Record) (*thresholdProvisioner, error) {
	p := &thresholdProvisioner{
		capacity: capacity,
		scheme:   scheme,
		store:    store,
		live:     live,
		epoch:    epoch,
		encls:    make(map[string]*enclave.IBBEEnclave),
		rec:      rec.Clone(),
	}
	if rec != nil {
		pk, err := scheme.UnmarshalPublicKey(rec.MasterPK)
		if err != nil {
			return nil, fmt.Errorf("cluster: persisted DKG record: %w", err)
		}
		p.masterPK = pk
	}
	return p, nil
}

func (p *thresholdProvisioner) Provision(id string, encl *enclave.IBBEEnclave) (ExtractFunc, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.rec != nil:
		// Restart (or runtime mint against a committed sharing): holders
		// reload their sealed share from the published record; non-holders
		// get only the public key and become holders at the next reshare.
		if sealed, ok := p.rec.SealedShares[id]; ok && p.rec.Index(id) != 0 {
			if err := encl.EcallRestoreShare(p.rec, id, sealed); err != nil {
				return nil, fmt.Errorf("cluster: restoring share on %s: %w", id, err)
			}
		} else if err := encl.EcallAdoptPublicKey(p.rec.MasterPK); err != nil {
			return nil, err
		}
	case p.masterPK == nil:
		// Bootstrap dealer: the ONLY enclave that ever holds the full γ,
		// and only until it commits Complete's bootstrap reshare.
		pk, _, err := encl.EcallSetup(p.capacity)
		if err != nil {
			return nil, err
		}
		p.masterPK, p.dealer = pk, id
	default:
		if err := encl.EcallAdoptPublicKey(p.scheme.MarshalPublicKey(p.masterPK)); err != nil {
			return nil, err
		}
	}
	p.encls[id] = encl
	// /provision on a threshold shard routes through the quorum protocol
	// instead of the (share-less) local enclave; this shard's own enclave
	// does the combine, so the signature verifies against the certificate
	// the shard serves.
	return func(uid string, userPub *ecdh.PublicKey) (*enclave.ProvisionedKey, error) {
		return p.extractVia(id, uid, userPub)
	}, nil
}

// Complete runs bootstrap as the first reshare: the dealer (the one
// enclave that ran EcallSetup) turns γ into the degree-0 genesis sharing,
// and reshareLocked moves it to the boot members, publishes the record
// inside the fenced membership record and commits — the dealer's own commit
// drops its full secret. Restarted clusters (rec already set) skip it.
func (p *thresholdProvisioner) Complete(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rec != nil {
		return nil
	}
	if p.dealer == "" {
		return errors.New("cluster: threshold bootstrap without a dealer enclave")
	}
	genesis, err := p.encls[p.dealer].EcallGenesisShare(p.dealer)
	if err != nil {
		return fmt.Errorf("cluster: genesis sharing on %s: %w", p.dealer, err)
	}
	return p.reshareLocked(ctx, genesis, p.sortedShardsLocked(), p.epoch())
}

// publishLocked installs rec as the DKG field of the membership record at
// epoch gen. The reshare's correctness hinges on the epoch check: a record
// published by a newer membership means this sharing is already stale.
func (p *thresholdProvisioner) publishLocked(ctx context.Context, gen uint64, rec *dkg.Record) error {
	_, err := membership.Update(ctx, p.store, func(cur *membership.Record) (*membership.Record, error) {
		if cur == nil {
			return nil, membership.ErrNoRecord
		}
		if cur.Epoch != gen {
			return nil, fmt.Errorf("%w: sharing is for epoch %d, store is at %d", ErrReshareSuperseded, gen, cur.Epoch)
		}
		if cur.DKG != nil && cur.DKG.Generation >= gen && cur.DKG.Generation != p.generationLocked() {
			// Someone else (a second gateway) already published this
			// generation's sharing; ours would clobber theirs.
			return nil, fmt.Errorf("%w: generation %d already published", ErrReshareSuperseded, cur.DKG.Generation)
		}
		cur.DKG = rec
		return cur, nil
	})
	if err != nil {
		return fmt.Errorf("cluster: publishing DKG record: %w", err)
	}
	return nil
}

// timePhase times one reshare phase for the observability bundle; use as
// `defer p.timePhase("subdeal")()`.
func (p *thresholdProvisioner) timePhase(name string) func() {
	co := p.obs
	if co == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { co.reshareSeconds.With(name).ObserveSince(t0) }
}

// noteCommitted publishes the committed generation to the gauge. Callers
// either hold p.mu or run before any concurrency (cluster construction).
func (p *thresholdProvisioner) noteCommitted() {
	if p.obs != nil && p.rec != nil {
		p.obs.dkgGeneration.Set(float64(p.rec.Generation))
	}
}

func (p *thresholdProvisioner) generationLocked() uint64 {
	if p.rec == nil {
		return 0
	}
	return p.rec.Generation
}

// sortedShardsLocked returns every registered shard ID, sorted.
func (p *thresholdProvisioner) sortedShardsLocked() []string {
	ids := make([]string, 0, len(p.encls))
	for id := range p.encls {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// holderIndicesLocked assigns 1-based share indices in sorted-ID order.
func (p *thresholdProvisioner) holderIndicesLocked(ids []string) map[string]int {
	holders := make(map[string]int, len(ids))
	for i, id := range ids {
		holders[id] = i + 1
	}
	return holders
}

// snapshot copies the state an extraction round needs — the committed
// record (immutable once installed) and the enclave registry — so the
// multi-round quorum protocol can run WITHOUT p.mu: holding the lock across
// 2n+1 scalar-multiplying ECALLs would serialize every user-key extraction
// cluster-wide and block membership reshares behind extraction traffic.
func (p *thresholdProvisioner) snapshot() (*dkg.Record, map[string]*enclave.IBBEEnclave) {
	p.mu.Lock()
	defer p.mu.Unlock()
	encls := make(map[string]*enclave.IBBEEnclave, len(p.encls))
	for id, e := range p.encls {
		encls[id] = e
	}
	return p.rec, encls
}

// liveHolders returns rec's holders that are minted and still serving,
// sorted by shard ID.
func liveHolders(rec *dkg.Record, encls map[string]*enclave.IBBEEnclave, live func(string) bool) []string {
	if rec == nil {
		return nil
	}
	out := make([]string, 0, len(rec.Holders))
	for id := range rec.Holders {
		if encls[id] != nil && (live == nil || live(id)) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// extractVia runs the threshold extraction with coord as the coordinating
// shard: the quorum's partials are combined (and the user key signed)
// inside coord's enclave, so the signature verifies against the certificate
// of the shard that served the request. An empty (or unknown) coord falls
// back to the first live holder. With a full blinded quorum (2d+1 live
// holders) no enclave ever reconstructs γ; between d+1 and 2d no quorum
// exists, so the survivors fall back to a recovery combine where ONE
// coordinating enclave transiently reconstructs γ inside and discards it —
// degraded, but the secret still never exists outside enclave code.
//
// The protocol runs on a snapshot, outside p.mu. The enclaves themselves
// revalidate the generation — every round blob is sealed under a
// generation-bound label and the share ECALLs reject a mismatched gen — so
// an extraction straddling a reshare commit fails loudly instead of
// combining partials from different polynomials; the bounded retry then
// re-snapshots (waiting out an in-flight reshare on p.mu) and succeeds on
// the new generation.
func (p *thresholdProvisioner) extractVia(coord, id string, userPub *ecdh.PublicKey) (*enclave.ProvisionedKey, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		pk, err := p.extractOnce(coord, id, userPub)
		if err == nil {
			return pk, nil
		}
		lastErr = err
		if !errors.Is(err, enclave.ErrShareGeneration) && !errors.Is(err, enclave.ErrSealedDataCorrupt) {
			return nil, err
		}
	}
	return nil, lastErr
}

// extractOnce runs one extraction attempt against a consistent snapshot.
func (p *thresholdProvisioner) extractOnce(coord, id string, userPub *ecdh.PublicKey) (*enclave.ProvisionedKey, error) {
	rec, encls := p.snapshot()
	if rec == nil {
		return nil, errors.New("cluster: threshold sharing not bootstrapped")
	}
	live := liveHolders(rec, encls, p.live)
	if len(live) == 0 {
		return nil, errors.New("cluster: no live share holders")
	}
	combiner := encls[coord]
	if combiner == nil {
		combiner = encls[live[0]]
	}
	d := rec.Degree
	if len(live) >= dkg.Quorum(d) {
		pk, err := p.blindExtract(rec, encls, id, userPub, live[:dkg.Quorum(d)], combiner)
		if err == nil {
			return pk, nil
		}
		if errors.Is(err, enclave.ErrShareGeneration) || errors.Is(err, enclave.ErrSealedDataCorrupt) {
			return nil, err // stale snapshot: retry, don't degrade
		}
		// A holder may have died between the liveness snapshot and its
		// ECALL; the degraded path below needs fewer survivors.
	}
	if len(live) >= dkg.Threshold(d) {
		return p.recoverExtract(rec, encls, id, userPub, live, combiner)
	}
	return nil, fmt.Errorf("cluster: only %d of %d share holders live, need %d to extract", len(live), len(rec.Holders), dkg.Threshold(d))
}

// blindExtract is the full protocol: every quorum member deals fresh
// blinding+zero sharings (round 1), aggregates the quorum's contributions
// into its sealed (u_i, P_i) partial (round 2), and the combiner enclave
// opens the partials and folds them into the wrapped user key. Every blob
// is sealed between enclaves and bound to (generation, identity, nonce);
// the untrusted relay below never sees a share, a partial or the key.
func (p *thresholdProvisioner) blindExtract(rec *dkg.Record, encls map[string]*enclave.IBBEEnclave, id string, userPub *ecdh.PublicKey, quorum []string, combiner *enclave.IBBEEnclave) (*enclave.ProvisionedKey, error) {
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	gen := rec.Generation
	indices := make([]int, len(quorum))
	for k, sid := range quorum {
		indices[k] = rec.Index(sid)
	}
	// Round 1: dealer index → (target index → sealed contribution).
	byTarget := make(map[int]map[int][]byte, len(quorum))
	for _, sid := range quorum {
		out, err := encls[sid].EcallBlindRound(gen, id, nonce, indices)
		if err != nil {
			return nil, fmt.Errorf("cluster: blind round on %s: %w", sid, err)
		}
		dealerIdx := rec.Index(sid)
		for target, blob := range out {
			if byTarget[target] == nil {
				byTarget[target] = make(map[int][]byte, len(quorum))
			}
			byTarget[target][dealerIdx] = blob
		}
	}
	// Round 2: each member produces its sealed blinded partial.
	partials := make([][]byte, 0, len(quorum))
	for _, sid := range quorum {
		part, err := encls[sid].EcallPartialExtract(gen, id, nonce, indices, byTarget[rec.Index(sid)])
		if err != nil {
			return nil, fmt.Errorf("cluster: partial extract on %s: %w", sid, err)
		}
		partials = append(partials, part)
	}
	return combiner.EcallCombineExtract(id, userPub, gen, rec.Degree, nonce, partials)
}

// recoverExtract is the degraded path: d+1 survivors export their shares
// (sealed, nonce-bound) to the combiner enclave, which verifies them,
// transiently reconstructs γ and extracts.
func (p *thresholdProvisioner) recoverExtract(rec *dkg.Record, encls map[string]*enclave.IBBEEnclave, id string, userPub *ecdh.PublicKey, live []string, combiner *enclave.IBBEEnclave) (*enclave.ProvisionedKey, error) {
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	need := dkg.Threshold(rec.Degree)
	blobs := make([][]byte, 0, need)
	for _, sid := range live {
		blob, err := encls[sid].EcallExportShare(nonce)
		if err != nil {
			continue // dead since the snapshot; any d+1 exports suffice
		}
		blobs = append(blobs, blob)
		if len(blobs) == need {
			break
		}
	}
	if len(blobs) < need {
		return nil, fmt.Errorf("cluster: only %d shares exported, need %d", len(blobs), need)
	}
	return combiner.EcallRecoverExtract(id, userPub, nonce, rec, blobs)
}

// OnMembership reshares the secret to membership m's member set under m's
// epoch. A publish lost to a newer epoch reports ErrReshareSuperseded — the
// newer epoch's own OnMembership reshares from the still-committed old
// generation.
func (p *thresholdProvisioner) OnMembership(ctx context.Context, m *Membership) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rec == nil {
		return nil // bootstrap not finished; Complete publishes for this epoch
	}
	if m.Epoch <= p.rec.Generation {
		return nil // already sharing at (or past) this epoch
	}
	err := p.reshareLocked(ctx, p.rec, m.Members(), m.Epoch)
	if p.rec.Generation == m.Epoch { // published, whatever the commits said
		p.reshares++
		if p.obs != nil {
			p.obs.resharesTotal.Inc()
		}
	}
	return err
}

// reshareLocked moves the sharing cur to members at generation newGen — the
// one way a share moves, bootstrap's genesis sharing included: d_cur+1 live
// holders of cur each sub-deal their share at the new degree, every member
// verifies the sub-deals and combines them into a PENDING share, the new
// record is published under newGen, and only then do the members commit
// (and holders left out wipe). A lost publish drops every pending share.
// Callers hold p.mu.
func (p *thresholdProvisioner) reshareLocked(ctx context.Context, cur *dkg.Record, members []string, newGen uint64) error {
	// New holder set = the members (all minted by the time this runs).
	// Dealers = d_cur+1 live holders of the committed sharing.
	for _, id := range members {
		if p.encls[id] == nil {
			return fmt.Errorf("cluster: reshare target %s has no enclave", id)
		}
	}
	newHolders := p.holderIndicesLocked(members)
	newDegree := dkg.PrivacyDegree(len(members))
	newIndices := make([]int, 0, len(members))
	for _, id := range members {
		newIndices = append(newIndices, newHolders[id])
	}
	sort.Ints(newIndices)
	liveOld := liveHolders(cur, p.encls, p.live)
	need := dkg.Threshold(cur.Degree)
	if len(liveOld) < need {
		return fmt.Errorf("cluster: only %d share holders live, need %d to reshare", len(liveOld), need)
	}
	dealerIDs := liveOld[:need]
	dealers := make([]int, len(dealerIDs))
	subComms := make(map[int][][]byte, need)
	subBlobs := make(map[int]map[int][]byte, need) // dealer idx → target idx → blob
	subDealDone := p.timePhase("subdeal")
	for k, sid := range dealerIDs {
		di := cur.Index(sid)
		comms, blobs, err := p.encls[sid].EcallSubDeal(newGen, newDegree, newIndices)
		if err != nil {
			return fmt.Errorf("cluster: sub-deal on %s: %w", sid, err)
		}
		dealers[k] = di
		subComms[di] = comms
		subBlobs[di] = blobs
	}
	subDealDone()

	newRec := &dkg.Record{
		Generation:   newGen,
		Degree:       newDegree,
		ExtractBase:  append([]byte(nil), cur.ExtractBase...),
		MasterPK:     append([]byte(nil), cur.MasterPK...),
		Holders:      newHolders,
		SealedShares: make(map[string][]byte, len(members)),
	}
	adopted := make([]string, 0, len(members))
	drop := func() {
		for _, id := range adopted {
			p.encls[id].EcallDropReshare(newGen)
		}
	}
	adoptDone := p.timePhase("adopt")
	for _, id := range members {
		ni := newHolders[id]
		blobs := make(map[int][]byte, len(dealers))
		for _, di := range dealers {
			blobs[di] = subBlobs[di][ni]
		}
		sealed, comms, err := p.encls[id].EcallAdoptReshare(cur, newGen, newDegree, ni, dealers, subComms, blobs)
		if err != nil {
			drop()
			return fmt.Errorf("cluster: %s adopting reshare: %w", id, err)
		}
		adopted = append(adopted, id)
		newRec.SealedShares[id] = sealed
		newRec.Commitments = comms // every member combines the same commitments
	}
	adoptDone()

	if p.beforePublish != nil {
		p.beforePublish()
	}
	publishDone := p.timePhase("publish")
	if err := p.publishLocked(ctx, newGen, newRec); err != nil {
		drop()
		publishDone()
		return err
	}
	publishDone()
	// The publish is durable: the store now names newGen's sharing, so this
	// provisioner is on the new generation REGARDLESS of per-member commit
	// outcomes — staying on the superseded record while some members commit
	// would combine partials from different polynomials into silently wrong
	// user keys (the one failure mode the generation-bound seals exist to
	// prevent).
	p.rec = newRec
	p.noteCommitted()
	commitDone := p.timePhase("commit")
	defer commitDone()
	var commitErrs []error
	for _, id := range members {
		if err := p.encls[id].EcallCommitReshare(newGen); err == nil {
			continue
		} else if rerr := p.encls[id].EcallRestoreShare(newRec, id, newRec.SealedShares[id]); rerr != nil {
			// Commit failed and the published sealed blob cannot heal it:
			// quarantine the member by wiping its (stale) share, so it can
			// only err loudly instead of contributing old-generation
			// partials. It re-acquires a share at the next reshare.
			p.encls[id].EcallWipeShare()
			commitErrs = append(commitErrs, fmt.Errorf("cluster: %s failed to commit reshare (quarantined): %w", id, errors.Join(err, rerr)))
		}
	}
	// Proactive security: holders dropped from the set wipe their (now
	// superseded) shares, so old and new shares can never be pooled.
	for id := range cur.Holders {
		if _, still := newHolders[id]; !still && p.encls[id] != nil {
			p.encls[id].EcallWipeShare()
		}
	}
	return errors.Join(commitErrs...)
}

func (p *thresholdProvisioner) PublicKey() *ibbe.PublicKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.masterPK
}

// Record returns a snapshot of the committed DKG record (nil before
// bootstrap).
func (p *thresholdProvisioner) Record() *dkg.Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rec.Clone()
}

func (p *thresholdProvisioner) Stamp(rec *membership.Record) { rec.DKG = p.Record() }

func (p *thresholdProvisioner) Status() ProvisionerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := ProvisionerStatus{Mode: string(ProvisionThreshold), Reshares: p.reshares}
	if p.rec != nil {
		st.Generation = p.rec.Generation
		st.Degree = p.rec.Degree
		st.Quorum = dkg.Quorum(p.rec.Degree)
		st.Recovery = dkg.Threshold(p.rec.Degree)
		for id := range p.rec.Holders {
			st.Holders = append(st.Holders, id)
		}
		sort.Strings(st.Holders)
	}
	return st
}
