// Package cluster implements sharded multi-administrator operation — the
// horizontal scale-out the paper's §VIII names as future work. A
// consistent-hash ring maps every group to an owning admin shard; each
// shard runs its own enclave-backed core.Manager + admin.Admin (all
// enclaves share one master secret via sealed exchange on the same
// platform, so user keys and partition records are interchangeable across
// shards); ownership is enforced by per-group lease records in the cloud
// store, acquired and renewed with compare-and-swap writes; and a Router
// gateway exposes the unchanged /admin/* surface, forwarding each request
// to the owning shard — a client.ClusterClient with the router as its
// fallback drives a whole cluster exactly like a single admin.
//
// The member set is ELASTIC: a Membership (epoch + ring) versions it, and
// ApplyMembership moves a live cluster to a new member set — shards losing
// an arc drain and hand their groups off, the joining shard adopts them
// through the existing restore-and-rotate path, and the epoch fences every
// storage write (storage.PutFenced) so an administrator still operating
// under a superseded membership is rejected outright.
//
// Safety does not rest on the ring or the leases alone: every shard's
// Admin runs in CAS mode (storage.PutIf), so even two shards that both
// believe they own a group — a lease-expiry race — serialise on the group
// directory version and can never interleave records from different group
// keys.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/attest"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/dkg"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/pki"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// Options configures a cluster.
type Options struct {
	// Shards is the number of admin shards (≥ 1).
	Shards int
	// Capacity is the partition capacity |p| every shard manages with.
	Capacity int
	// Params selects the pairing parameters (default TypeA160); /info
	// advertises their own name, Params.Name(). ParamsName is optional and,
	// when set, must equal Params.Name().
	Params     *pairing.Params
	ParamsName string
	// Store is the shared cloud store (defaults to a fresh MemStore).
	Store storage.Store
	// LeaseTTL is the group-lease duration (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Seed drives each shard's partition-picking randomness.
	Seed int64
	// Workers bounds each shard's per-operation partition fan-out
	// (0 = number of CPUs).
	Workers int
	// MaxResidentPages bounds each group's resident partition-page cache on
	// every shard (0 = unbounded). With a bound, a shard's memory per group
	// is O(index + bound × page), not O(group): untouched pages evict and
	// rehydrate from the store on demand.
	MaxResidentPages int
	// Provisioning selects how shards obtain master-key material: sealed
	// exchange (default) or threshold DKG. A store that already carries a
	// DKG record forces threshold mode regardless, and one carrying a
	// sealed master key sealed mode — the key material in the store must be
	// re-adopted, never clobbered by a fresh setup.
	Provisioning ProvisioningMode
	// Platform, when set, hosts the shard enclaves instead of a freshly
	// generated one. A restarted cluster MUST reuse its original platform:
	// the persisted master key (sealed mode) or share blobs (threshold) are
	// sealed to it, and New fails on any other.
	Platform *enclave.Platform

	// Registry, when set, receives the cluster's operational metrics
	// (router, admin, storage, lease, DKG, crypto families) and the store
	// is wrapped with storage.Instrument. Nil disables all metric recording
	// at zero cost. Tracer, when set, threads request traces through the
	// shards' admin and store operations.
	Registry *obs.Registry
	Tracer   *obs.Tracer

	// now overrides the clock (tests).
	now func() time.Time
}

// Cluster is an elastic set of admin shards over one shared cloud store.
// All shard enclaves run on the same (simulated) platform and share the
// IBBE master secret: the first shard runs EcallSetup and every later one —
// including shards minted at runtime by AddShard — EcallRestores its sealed
// MSK; the sealed blob only opens inside the same enclave code on the same
// platform, which is exactly the paper's multi-admin trust story. User keys
// provisioned by any shard therefore decrypt records written by any other.
// The blob rides in the membership record, so a restarted cluster restores
// the same key on every shard.
type Cluster struct {
	Store storage.Store

	// Platform hosts every shard enclave (one machine, N admin processes).
	Platform *enclave.Platform

	// Targets, when set (before the first membership change), supplies the
	// shard-ID → base-URL map published alongside each membership record
	// and merged into the routing view, so the gateway router (and a
	// direct-routing client, or a second gateway) can resolve every member.
	Targets func() map[string]string

	// Build-time material for minting shards at runtime.
	opts    Options
	params  *pairing.Params
	ias     *attest.IAS
	auditor *pki.Auditor
	// prov decides what key material a minted shard receives (the full
	// sealed secret or a threshold share) and runs the DKG life-cycle.
	prov KeyProvisioner

	// changeMu serialises whole membership transitions (the read-compute-
	// apply of ApplyMembership/RemoveShard), so two concurrent operator
	// requests cannot build successor memberships from the same base and
	// silently drop each other's changes. mu (below) only guards field
	// access and is never held across shard calls.
	changeMu sync.Mutex

	// co bundles the observability handles every shard shares (nil when
	// Options.Registry was nil).
	co *clusterObs

	// view is the process's one copy of the membership: Membership, Epoch
	// and Ring read it, the gateway router (NewRouter) sweeps it, and it
	// follows the persisted record. Every epoch it adopts from the store —
	// published by another writer, or read back after a shard's fenced
	// write or a router's sweep — is propagated under changeMu by catchUp.
	view *membership.View

	mu     sync.Mutex
	shards []*Shard
	// applied is the epoch last propagated to the shards; the view can be
	// ahead of it while a discovered epoch waits for changeMu.
	applied uint64
	// catchingUp is set while a catchUp goroutine is running.
	catchingUp bool
	nextShard  int
	started    bool

	stopOnce sync.Once
	stopc    chan struct{}
}

// ShardID names shard i.
func ShardID(i int) string { return fmt.Sprintf("shard-%d", i) }

// New builds (but does not start) a cluster. A store that already holds a
// membership record — a restarted deployment — is authoritative: the
// cluster adopts the persisted epoch and member set (minting one shard per
// member, opts.Shards notwithstanding), so a gateway restart loses no
// membership state and its writes stay correctly fenced. A fresh store is
// bootstrapped at epoch 1 over opts.Shards members and the record
// published, CAS-guarded against a concurrently bootstrapping peer.
func New(opts Options) (*Cluster, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least one shard, got %d", opts.Shards)
	}
	if opts.Capacity < 1 {
		return nil, fmt.Errorf("cluster: capacity must be positive, got %d", opts.Capacity)
	}
	mode := opts.Provisioning
	switch mode {
	case "":
		mode = ProvisionSealed
	case ProvisionSealed, ProvisionThreshold:
	default:
		return nil, fmt.Errorf("cluster: unknown provisioning mode %q (want %s or %s)", mode, ProvisionSealed, ProvisionThreshold)
	}
	params := opts.Params
	if params == nil {
		params = pairing.TypeA160()
	}
	// Clients build their scheme from the advertised name, so it is the
	// parameters' own, never a second setting that could disagree.
	if opts.ParamsName != "" && opts.ParamsName != params.Name() {
		return nil, fmt.Errorf("cluster: ParamsName %q disagrees with the parameters' name %q", opts.ParamsName, params.Name())
	}
	store := opts.Store
	if store == nil {
		store = storage.NewMemStore(storage.Latency{})
	}
	// Instrument the store BEFORE anything touches it: membership reads,
	// lease CAS traffic and admin record writes all count. No-op (the store
	// is returned unwrapped) when no registry is configured.
	store = storage.Instrument(store, opts.Registry)

	platform := opts.Platform
	if platform == nil {
		var err error
		platform, err = enclave.NewPlatform("cluster-platform", rand.Reader)
		if err != nil {
			return nil, err
		}
	}
	ias, err := attest.NewIAS()
	if err != nil {
		return nil, err
	}
	ias.RegisterPlatform(platform)
	auditor, err := pki.NewAuditor(ias.PublicKey(), enclave.IBBEMeasurement())
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Store:    store,
		Platform: platform,
		opts:     opts,
		params:   params,
		ias:      ias,
		auditor:  auditor,
		co:       newClusterObs(opts.Registry, opts.Tracer),
		view:     membership.NewView(store),
		stopc:    make(chan struct{}),
	}
	if r := opts.Registry; r != nil {
		// Crypto-op rates: the per-shard ibbe.Metrics counters sampled at
		// scrape time — no double bookkeeping on the crypto hot path.
		r.Collect("ibbe_crypto_ops_total", "Primitive crypto operations by shard and op.", obs.TypeCounter, []string{"shard", "op"},
			func(emit func([]string, float64)) {
				for _, s := range c.Shards() {
					m := s.Encl.Scheme().Metrics
					if m == nil {
						continue
					}
					snap := m.SnapshotMap()
					for _, op := range []string{"g1_exp", "gt_exp", "pairings", "zr_mul"} {
						emit([]string{s.ID, op}, float64(snap[op]))
					}
				}
			})
		r.Collect("ibbe_shard_groups_owned", "Groups whose lease each shard currently holds.", obs.TypeGauge, []string{"shard"},
			func(emit func([]string, float64)) {
				for _, s := range c.Shards() {
					emit([]string{s.ID}, float64(len(s.OwnedGroups())))
				}
			})
		// Paged group state: residency and displacement sampled from the
		// managers' lock-free mirrors, so a scrape never waits on a sweep.
		r.Collect("ibbe_core_resident_pages", "Partition pages currently resident per shard.", obs.TypeGauge, []string{"shard"},
			func(emit func([]string, float64)) {
				for _, s := range c.Shards() {
					emit([]string{s.ID}, float64(s.Admin.Manager().ResidentPages()))
				}
			})
		r.Collect("ibbe_core_page_evictions_total", "Partition pages displaced by the per-group LRU, per shard.", obs.TypeCounter, []string{"shard"},
			func(emit func([]string, float64)) {
				for _, s := range c.Shards() {
					emit([]string{s.ID}, float64(s.Admin.Manager().PageEvictions()))
				}
			})
		r.Collect("ibbe_core_repartition_failures_total", "Re-partitions started inside a removal that could not finish (the removal stood, the old layout stayed), per shard.", obs.TypeCounter, []string{"shard"},
			func(emit func([]string, float64)) {
				for _, s := range c.Shards() {
					emit([]string{s.ID}, float64(s.Admin.Manager().RepartitionFailures()))
				}
			})
	}

	ctx := context.Background()
	rec, _, err := membership.Load(ctx, store)
	if err != nil && !errors.Is(err, membership.ErrNoRecord) {
		return nil, fmt.Errorf("cluster: reading membership record: %w", err)
	}

	// The provisioner is chosen BEFORE any shard is minted: a persisted DKG
	// record forces threshold mode and a persisted sealed key sealed mode
	// (what the store holds IS the master secret — a fresh setup would fork
	// the key); otherwise the operator's option decides.
	var (
		dkgRec *dkg.Record
		key    *membership.MasterKey
	)
	switch {
	case rec == nil:
	case rec.DKG != nil:
		dkgRec, mode = rec.DKG, ProvisionThreshold
	case rec.MasterKey != nil:
		key, mode = rec.MasterKey, ProvisionSealed
	case mode == ProvisionSealed:
		log.Printf("cluster: WARNING: the membership record (epoch %d) carries no sealed master key; minting a fresh master secret, so groups written before this restart will not decrypt", rec.Epoch)
	}
	if err := c.newProvisioner(mode, dkgRec, key); err != nil {
		return nil, err
	}

	var boot *Membership
	if rec != nil {
		// Restart: the persisted record, not opts.Shards, names the member
		// set and epoch. Every write this incarnation issues is fenced at
		// (or above) the adopted epoch, so nothing it does can race a
		// predecessor's leftovers.
		if boot, err = rec.Membership(); err != nil {
			return nil, err
		}
		c.nextShard = nextShardIndex(rec.Members)
		if err := c.mintShards(rec.Members, boot); err != nil {
			return nil, err
		}
	} else if boot, err = c.bootstrap(ctx, opts.Shards); err != nil {
		return nil, err
	}
	c.view.Adopt(boot, nil)
	c.applied = boot.Epoch
	c.view.OnAdopt = c.adoptDiscovered
	// Bootstrap (or restart) is only done once the provisioner completes:
	// in threshold mode this is where the DKG runs — the transient dealer
	// shares γ across the members and drops it, and the record lands in
	// the fenced membership record.
	if err := c.prov.Complete(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// newProvisioner installs the key provisioner for mode, built from the
// persisted sharing or sealed key when the store holds one.
func (c *Cluster) newProvisioner(mode ProvisioningMode, dkgRec *dkg.Record, key *membership.MasterKey) error {
	scheme := ibbe.NewScheme(c.params)
	if mode == ProvisionSealed {
		sp, err := newSealedProvisioner(c.opts.Capacity, scheme, key)
		if err != nil {
			return err
		}
		c.prov = sp
		return nil
	}
	tp, err := newThresholdProvisioner(c.opts.Capacity, scheme, c.Store, c.shardAlive, c.Epoch, dkgRec)
	if err != nil {
		return err
	}
	tp.obs = c.co
	tp.noteCommitted()
	c.prov = tp
	return nil
}

// bootstrap mints n shards over a fresh store and publishes the epoch-1
// record, stamped with the provisioner's key material, only if the store
// still has none — a concurrently bootstrapping peer may have won. A peer
// that won with the same member set is adopted — its sealed key restored on
// freshly minted shards, so this process never keeps a second master
// secret; anything else fails.
func (c *Cluster) bootstrap(ctx context.Context, n int) (*Membership, error) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = ShardID(i)
	}
	m, err := membership.New(ids, membership.DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	c.nextShard = nextShardIndex(ids)
	if err := c.mintShards(ids, m); err != nil {
		return nil, err
	}
	rec := membership.RecordOf(m, nil)
	c.prov.Stamp(rec)
	won, err := membership.Update(ctx, c.Store, func(cur *membership.Record) (*membership.Record, error) {
		if cur != nil {
			return nil, nil // a peer bootstrapped first: adopt, never overwrite
		}
		return rec, nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: bootstrapping membership record: %w", err)
	}
	if won == rec {
		return m, nil
	}
	// A peer bootstrapped the same store first. Identical member sets
	// merely lost a harmless race; anything else is a real configuration
	// conflict the operator must resolve.
	theirs, err := won.Membership()
	if err != nil {
		return nil, err
	}
	if !sameMembers(theirs.Members(), m.Members()) {
		return nil, fmt.Errorf("cluster: store already holds membership epoch %d over %v", won.Epoch, won.Members)
	}
	if rec.MasterKey == nil && won.MasterKey == nil {
		return theirs, nil // threshold: Complete's publish settles the sharing
	}
	if rec.MasterKey == nil || won.MasterKey == nil {
		return nil, fmt.Errorf("cluster: lost the bootstrap race to a peer provisioning the master key another way")
	}
	if err := c.newProvisioner(ProvisionSealed, nil, won.MasterKey); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.shards = nil
	c.mu.Unlock()
	return theirs, c.mintShards(ids, theirs)
}

// mintShards mints one shard per id under membership m.
func (c *Cluster) mintShards(ids []string, m *Membership) error {
	for _, id := range ids {
		if _, err := c.mintShardID(id, m); err != nil {
			return err
		}
	}
	return nil
}

// shardAlive reports whether a shard is minted and still serving — the
// provisioner's liveness oracle for picking extraction quorums and reshare
// dealers.
func (c *Cluster) shardAlive(id string) bool {
	s := c.Shard(id)
	return s != nil && !s.Stopped()
}

// Provisioner exposes the cluster's key provisioner (status endpoints,
// threshold extraction, tests).
func (c *Cluster) Provisioner() KeyProvisioner { return c.prov }

// shardIndex parses the numeric index out of a ShardID (0 for a foreign
// ID, which New/AddShard never mint).
func shardIndex(id string) int {
	var i int
	if _, err := fmt.Sscanf(id, "shard-%d", &i); err == nil {
		return i
	}
	return 0
}

// nextShardIndex returns the smallest index no persisted member uses, so
// shards minted after a restart never collide with adopted IDs.
func nextShardIndex(members []string) int {
	next := 0
	for _, id := range members {
		if i := shardIndex(id); i+1 > next {
			next = i + 1
		}
	}
	return next
}

// sameMembers reports whether two sorted member lists are identical.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mintShardID builds the shard named id, appends it to the shard list and
// returns it. What key material the new enclave receives is entirely the
// provisioner's call: the full sealed secret (legacy), a restored share
// (threshold restart) or just the master public key (threshold runtime
// mint — the shard becomes a holder at the next reshare). Caller holds no
// lock (New) or c.mu is expected NOT to be held — mintShardID locks
// internally only for the list append.
func (c *Cluster) mintShardID(id string, m *Membership) (*Shard, error) {
	encl, err := enclave.NewIBBEEnclave(c.Platform, c.params)
	if err != nil {
		return nil, err
	}
	// Per-shard primitive-operation counters: the autoscaler's load signal
	// (groups owned × op rate). Attached before the first ECALL, so the
	// scheme field is never written concurrently with an operation.
	encl.Scheme().Metrics = &ibbe.Metrics{}
	if co := c.co; co != nil {
		shardID := id
		encl.Obs = func(call string, seconds float64) {
			co.ecallSeconds.With(shardID, call).Observe(seconds)
		}
	}
	extract, err := c.prov.Provision(id, encl)
	if err != nil {
		return nil, err
	}
	cert, err := c.auditor.AttestAndCertify(c.ias, encl)
	if err != nil {
		return nil, fmt.Errorf("cluster: attesting %s: %w", id, err)
	}
	// The partition-picking seed derives from the shard's ID, not the list
	// length: concurrent mints (operator add racing an autoscaler grow)
	// must never share a PRNG stream, and a restarted shard-N re-seeds
	// exactly as its predecessor did.
	mgr, err := core.NewManager(encl, c.opts.Capacity, c.opts.Seed+int64(shardIndex(id)))
	if err != nil {
		return nil, err
	}
	if c.opts.Workers > 0 {
		mgr.SetParallelism(c.opts.Workers)
	}
	if c.opts.MaxResidentPages > 0 {
		mgr.SetMaxResidentPages(c.opts.MaxResidentPages)
	}
	// No op log: nothing in the cluster exports or verifies one, so a
	// certified log would only grow for the life of the process.
	adm := admin.New(id, mgr, c.Store, nil)
	info := admin.SystemInfo{
		Params:         c.params.Name(),
		PublicKey:      base64.StdEncoding.EncodeToString(mgr.Scheme().MarshalPublicKey(mgr.PublicKey())),
		EnclaveCertDER: base64.StdEncoding.EncodeToString(cert.Raw),
		RootCertDER:    base64.StdEncoding.EncodeToString(c.auditor.RootDER()),
		Capacity:       mgr.Capacity(),
	}
	s := c.newShard(id, adm, encl, m, info, extract)
	// started is read in the SAME critical section as the append: a
	// concurrent Cluster.Start() either sees this shard in its snapshot or
	// has already set started — either way exactly one Start reaches it
	// (Shard.Start is idempotent).
	c.mu.Lock()
	c.shards = append(c.shards, s)
	started := c.started
	c.mu.Unlock()
	if started {
		s.Start()
	}
	return s, nil
}

// AddShard mints a new shard sharing the cluster master secret. The shard
// serves provisioning immediately but owns no groups until a subsequent
// ApplyMembership names it a member.
func (c *Cluster) AddShard() (*Shard, error) {
	c.mu.Lock()
	id := ShardID(c.nextShard)
	c.nextShard++
	c.mu.Unlock()
	return c.mintShardID(id, c.Membership())
}

// ApplyMembership moves the live cluster to a new member set: it builds the
// successor membership (epoch+1) over the given shard IDs, installs it in
// the cluster's view first (the router sweeping it starts sending requests
// to the new owners), then hands it to every shard — members first, so the
// joining shard knows the new epoch before the losing shards drain their
// moved groups into the store. Shards left out of the member set drain
// everything they own; they keep serving provisioning and can be shut down
// (or re-admitted) by the operator.
//
// A non-nil Membership returned WITH a non-nil error means the change IS
// in effect (epoch bumped, routing switched) but some hand-off step failed
// — do not retry the whole change; the affected leases heal through TTL
// expiry and the new owners' adoption path. Only a nil Membership means
// nothing was applied.
func (c *Cluster) ApplyMembership(ctx context.Context, members []string) (*Membership, error) {
	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	return c.applyMembership(ctx, c.Epoch(), members)
}

// Admit grows the membership by one already-minted shard (AddShard) — the
// read-compute-apply runs under the transition lock, so concurrent admits
// cannot build successor memberships from the same base and drop each
// other's shards.
func (c *Cluster) Admit(ctx context.Context, id string) (*Membership, error) {
	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	m := c.Membership()
	next, err := m.AddShard(id)
	if err != nil {
		return nil, err
	}
	return c.applyMembership(ctx, m.Epoch, next.Members())
}

// applyMembership is ApplyMembership with c.changeMu already held, over a
// member list computed from the membership at epoch base. The successor
// record is CAS-published to the store BEFORE anything changes
// locally: a membership change that is not durable never reaches the
// shards. A change computed against a view the store has already
// superseded is refused outright — the member list would be stale — so the
// epoch sequence can neither fork nor silently drop a concurrent writer's
// members; a same-epoch write that lands first (a targets re-publish) only
// makes the publish recompute on top of it. base is the caller's, not
// re-read here: the view can adopt a newer record at any moment without
// changeMu.
func (c *Cluster) applyMembership(ctx context.Context, base uint64, members []string) (*Membership, error) {
	c.mu.Lock()
	for _, id := range members {
		if c.lookup(id) == nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("cluster: no such shard %s", id)
		}
	}
	c.mu.Unlock()

	next, err := membership.At(base+1, members, membership.DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	_, err = membership.Update(ctx, c.Store, func(cur *membership.Record) (*membership.Record, error) {
		if cur != nil && cur.Epoch > base {
			// The store is ahead of the view this change was computed from:
			// publishing it would silently drop whatever the concurrent
			// writer changed. Refuse — the discovery watcher adopts the
			// newer record, and the operator recomputes against it.
			return nil, fmt.Errorf("cluster: membership change computed against epoch %d but the store is at %d — superseded, recompute and retry", base, cur.Epoch)
		}
		rec := membership.RecordOf(next, c.targets())
		// Carry the key material into the successor record: if this
		// process dies before the new epoch's reshare publishes, the store
		// still holds commitments + sealed shares a restart can adopt.
		c.prov.Stamp(rec)
		return rec, nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: persisting membership record: %w", err)
	}
	return next, c.propagate(ctx, next)
}

// propagate installs a membership that is already durable (published by
// this cluster or discovered in the store): the view first, so the router
// sweeping it sends requests toward the new owners while the old owners
// drain, then every shard — members first, so the joining shard knows the
// new epoch before the losing shards drain their moved groups into the
// store. Stale or duplicate memberships are ignored. Caller holds changeMu.
func (c *Cluster) propagate(ctx context.Context, next *Membership) error {
	c.mu.Lock()
	if next.Epoch <= c.applied {
		c.mu.Unlock()
		return nil
	}
	// Raised before the view adopts next, so the view's OnAdopt hook sees
	// the epoch as applied and does not re-enter changeMu.
	c.applied = next.Epoch
	shards := append([]*Shard(nil), c.shards...)
	c.mu.Unlock()

	c.view.Adopt(next, c.targets())
	var firstErr error
	apply := func(s *Shard) {
		if err := s.ApplyMembership(ctx, next); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range shards { // members first: they adopt, they never drain
		if next.Has(s.ID) {
			apply(s)
		}
	}
	for _, s := range shards { // leavers drain under the new epoch
		if !next.Has(s.ID) {
			apply(s)
		}
	}
	// Reshare AFTER the shards hold the new epoch: the provisioner deals
	// the secret to the new member set and publishes the new record under
	// next.Epoch. A reshare superseded by an even newer epoch is expected
	// under churn — that epoch's own propagate reshares.
	if err := c.prov.OnMembership(ctx, next); err != nil && !errors.Is(err, ErrReshareSuperseded) && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// PublishTargets re-publishes the current membership record with the
// freshest URLs from the Targets hook. New publishes the bootstrap record
// before the caller can serve any shard (so its Targets are empty);
// calling this once the listeners are up lets a direct-routing client or a
// second gateway resolve every member without ever having talked to this
// one. A record at another epoch is left alone: a membership change is in
// flight, and that change's own record carries fresh targets.
func (c *Cluster) PublishTargets(ctx context.Context) error {
	if c.Targets == nil {
		return nil
	}
	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	_, err := membership.Update(ctx, c.Store, func(cur *membership.Record) (*membership.Record, error) {
		if cur == nil {
			return nil, membership.ErrNoRecord
		}
		if cur.Epoch != c.Epoch() {
			return nil, nil // mid-change or behind; the next record carries targets
		}
		cur.Targets = c.Targets()
		return cur, nil
	})
	return err
}

// adoptDiscovered is the view's OnAdopt hook, run by whoever made the view
// adopt a record from the store: the watch loop, a shard's fenced-write
// refresh, or a router request's sweep. It never waits: an epoch already
// applied (propagate's own adoption, made under changeMu) returns at once,
// and a newer one starts catchUp unless one is already running.
func (c *Cluster) adoptDiscovered(m *Membership) {
	c.mu.Lock()
	start := m.Epoch > c.applied && !c.catchingUp
	if start {
		c.catchingUp = true
	}
	c.mu.Unlock()
	if start {
		go c.catchUp()
	}
}

// catchUp propagates the view's latest membership under the transition
// lock, so a discovery cannot interleave with an operator-driven change
// mid-apply, until the shards hold the view's epoch. The view is read under
// c.mu, the lock adoptDiscovered checks catchingUp under: an epoch adopted
// after the last read finds catchingUp clear and starts a new catchUp.
func (c *Cluster) catchUp() {
	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	for {
		c.mu.Lock()
		m := c.view.Membership()
		if m.Epoch <= c.applied {
			c.catchingUp = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = c.propagate(ctx, m)
		cancel()
	}
}

// RemoveShard drains one member out of the cluster: the successor
// membership excludes it, so applyMembership hands every group it owns to
// the surviving members. The shard object stays alive (and in the shard
// list) so an operator can Shutdown it — or re-admit it later.
func (c *Cluster) RemoveShard(ctx context.Context, id string) (*Membership, error) {
	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	m := c.Membership()
	next, err := m.RemoveShard(id)
	if err != nil {
		return nil, err
	}
	return c.applyMembership(ctx, m.Epoch, next.Members())
}

// Membership returns the cluster's current membership: its view's, which
// moves before the shards drain.
func (c *Cluster) Membership() *Membership { return c.view.Membership() }

// targets returns the Targets hook's URLs (nil when unset).
func (c *Cluster) targets() map[string]string {
	if c.Targets == nil {
		return nil
	}
	return c.Targets()
}

// Ring returns the current membership's ring (owner lookups).
func (c *Cluster) Ring() *Ring { return c.Membership().Ring }

// Epoch returns the current membership epoch.
func (c *Cluster) Epoch() uint64 { return c.Membership().Epoch }

// Shards returns a snapshot of every shard ever minted (members and
// drained leavers alike), in creation order.
func (c *Cluster) Shards() []*Shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Shard(nil), c.shards...)
}

// Start launches every shard's lease renewal loop (and those of shards
// minted later), plus the view's watch on the membership record.
func (c *Cluster) Start() {
	c.mu.Lock()
	launchWatcher := !c.started
	c.started = true
	shards := append([]*Shard(nil), c.shards...)
	c.mu.Unlock()
	if launchWatcher {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { <-c.stopc; cancel() }()
		go c.view.Watch(ctx)
	}
	for _, s := range shards {
		s.Start()
	}
}

// Shutdown stops the discovery watcher and every shard gracefully.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.stopOnce.Do(func() { close(c.stopc) })
	var firstErr error
	for _, s := range c.Shards() {
		if err := s.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Shard returns a shard by ID (nil if unknown).
func (c *Cluster) Shard(id string) *Shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(id)
}

// lookup finds a shard by ID; callers hold c.mu.
func (c *Cluster) lookup(id string) *Shard {
	for _, s := range c.shards {
		if s.ID == id {
			return s
		}
	}
	return nil
}
