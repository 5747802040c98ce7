// Package admin implements the administrator side of the end-to-end system
// (Fig. 5): it drives the core.Manager (which in turn calls the enclave)
// and publishes each resulting update to the cloud store as one conditional
// storage.Commit, keeping a local cache so membership operations never need
// to read back from the cloud (§IV-C: administrators "can locally cache it
// and thus bypass the cost of accessing the cloud for metadata structures").
package admin

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/partition"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// ErrNoSealedKey reports a group directory without a sealed group key — an
// interrupted creation; the group is not restorable.
var ErrNoSealedKey = errors.New("admin: group has no sealed group key in the cloud")

// Admin binds a manager to a cloud store. Operations are safe for
// concurrent use (the manager serialises, and the store is concurrent).
//
// Every update is a storage.Commit conditional on the group directory
// version this admin last observed, so two administrators racing the same
// group cannot interleave records from different group keys. An operation
// whose publish fails for good drops the group from the local cache — the
// cloud holds the authoritative records — and RestoreGroup resumes it.
type Admin struct {
	// Name identifies this administrator in the certified operation log.
	Name string

	mgr   *core.Manager
	store storage.Store
	// log, when non-nil, chains every membership operation into a log that
	// is signed per export (§VIII future work; see core.OpLog).
	log *core.OpLog

	// fence, when set, supplies the cluster membership epoch stamped on
	// every commit: the store rejects commits from an admin operating under
	// a superseded membership with ErrFenced — terminal, never retried. See
	// SetFence.
	fence func() uint64
	// verMu guards dirVer, the per-group directory versions this admin's
	// cached state corresponds to. Entries are set by RestoreGroup and
	// advanced only by this admin's own writes — a conditional write against
	// the tracked version fails exactly when someone else wrote in between.
	verMu  sync.Mutex
	dirVer map[string]uint64

	// opMu guards opLocks, one mutex per group serialising op()+apply in
	// mutate. The manager serialises the *computation* of concurrent
	// operations on one group, but without this lock their *applies* could
	// invert: the op computed first (whose records don't yet include the
	// second op's change) could publish last and silently overwrite the
	// second op's records. Lock objects are never removed — a concurrent
	// holder must keep observing the same mutex — and grow only with the
	// number of distinct group names this admin ever touched.
	opMu    sync.Mutex
	opLocks map[string]*sync.Mutex
}

// New creates an administrator frontend.
func New(name string, mgr *core.Manager, store storage.Store, log *core.OpLog) *Admin {
	return &Admin{
		Name:    name,
		mgr:     mgr,
		store:   store,
		log:     log,
		dirVer:  make(map[string]uint64),
		opLocks: make(map[string]*sync.Mutex),
	}
}

// groupOpLock returns the mutex serialising this admin's operations on one
// group end to end (compute + publish).
func (a *Admin) groupOpLock(group string) *sync.Mutex {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	l := a.opLocks[group]
	if l == nil {
		l = &sync.Mutex{}
		a.opLocks[group] = l
	}
	return l
}

// EnableCAS does nothing: every apply is a conditional commit.
//
// Deprecated: compare-and-swap publishing is the only mode.
func (a *Admin) EnableCAS() {}

// SetFence installs the epoch provider fencing this admin's commits — in a
// cluster, the shard's current membership epoch. Must be set before the admin
// serves concurrent operations. A provider returning 0 disables fencing for
// that commit.
func (a *Admin) SetFence(epoch func() uint64) { a.fence = epoch }

// fenceEpoch returns the membership epoch to stamp on a commit, 0 (no fence
// carried) when none is installed.
func (a *Admin) fenceEpoch() uint64 {
	if a.fence == nil {
		return 0
	}
	return a.fence()
}

// LockGroup acquires the per-group operation lock and returns its unlock.
// The cluster layer uses it to flush in-flight operations before handing a
// group to another shard: once LockGroup returns, no operation on the group
// is mid-apply on this admin.
func (a *Admin) LockGroup(group string) func() {
	l := a.groupOpLock(group)
	l.Lock()
	return l.Unlock
}

// casAttempts bounds the refresh-and-retry loop: a persistent conflict
// (e.g. an ownership race that keeps losing) aborts cleanly instead of
// spinning.
const casAttempts = 4

// mutate runs one membership operation against the manager and applies its
// update. A version conflict means another administrator wrote the group
// since this admin last synchronised: the local state is rebuilt from the
// cloud and the operation retried, serialising the two admins. Nothing was
// written when the conflict fired on the first conditional write,
// so the losing operation either re-applies cleanly on top of the winner's
// state or aborts with the manager's own error (e.g. the user it wanted to
// add already exists now). The same holds one step earlier: group state
// hydrates lazily, so an operation computed on a stale header can already
// fail on the newer bucket or record it loads, and is likewise recomputed
// once if the directory has moved past the tracked version. An apply that
// fails for good — retries exhausted or a non-conflict storage error —
// leaves the group DROPPED from the local cache (the cloud holds the
// authoritative records; the caller restores before the next operation),
// never a silently divergent cache.
func (a *Admin) mutate(ctx context.Context, group string, op func() (*core.Update, error)) error {
	l := a.groupOpLock(group)
	l.Lock()
	defer l.Unlock()
	for attempt := 0; ; attempt++ {
		up, err := op()
		if err == nil {
			if err = a.apply(ctx, up); err == nil {
				return nil
			}
			a.DropGroup(group)
			if !errors.Is(err, storage.ErrVersionConflict) {
				return err
			}
		} else if !a.behind(ctx, group) {
			return err
		}
		if attempt >= casAttempts-1 {
			return err
		}
		if rerr := a.restoreForRetry(ctx, group); rerr != nil {
			return errors.Join(err, rerr)
		}
	}
}

// behind reports whether the group directory has moved past the version this
// admin's cached state was read at.
func (a *Admin) behind(ctx context.Context, group string) bool {
	a.verMu.Lock()
	tracked, ok := a.dirVer[group]
	a.verMu.Unlock()
	if !ok {
		return false
	}
	v, err := a.store.Version(ctx, group)
	return err == nil && v != tracked
}

// restoreForRetry rebuilds a group from the cloud for a conflict retry,
// tolerating the brief window where the winning administrator is still
// mid-apply (a record can vanish between list and get) by re-reading a
// bounded number of times. A torn-but-readable snapshot is fine: its
// tracked version predates the winner's remaining writes, so the retried
// apply conflicts again instead of committing on top of it.
func (a *Admin) restoreForRetry(ctx context.Context, group string) error {
	var err error
	for i := 0; i < casAttempts; i++ {
		a.DropGroup(group)
		if err = a.RestoreGroup(ctx, group); err == nil {
			return nil
		}
	}
	return err
}

// prepareCreate pins the directory version a creation commits on: the
// version at which the directory was observed EMPTY. Without the pin, a
// create would base itself on whatever version the store reports and could
// overwrite a live group's records; with it, a directory that already holds
// objects aborts with ErrGroupExists, and two administrators racing to
// create the same group both commit on the same empty-state version, so the
// first commit arbitrates.
func (a *Admin) prepareCreate(ctx context.Context, group string) error {
	v0, err := a.store.Version(ctx, group)
	if err != nil {
		return err
	}
	// Version 0 is a directory that was never written: nothing to list.
	if v0 != 0 {
		names, err := a.store.List(ctx, group)
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		if len(names) > 0 {
			return fmt.Errorf("%w: %s (records already in the cloud)", core.ErrGroupExists, group)
		}
	}
	a.trackVersion(group, v0)
	return nil
}

func (a *Admin) trackVersion(group string, v uint64) {
	a.verMu.Lock()
	a.dirVer[group] = v
	a.verMu.Unlock()
}

func (a *Admin) forgetVersion(group string) {
	a.verMu.Lock()
	delete(a.dirVer, group)
	a.verMu.Unlock()
}

// baseVersion returns the directory version the next conditional write must
// expect: the tracked one where present, else the store's current version
// (first write to a group this admin created rather than restored).
func (a *Admin) baseVersion(ctx context.Context, group string) (uint64, error) {
	a.verMu.Lock()
	v, ok := a.dirVer[group]
	a.verMu.Unlock()
	if ok {
		return v, nil
	}
	return a.store.Version(ctx, group)
}

// Manager exposes the underlying manager (e.g. for metadata accounting).
func (a *Admin) Manager() *core.Manager { return a.mgr }

// CreateGroup runs Algorithm 1 and publishes all partition records. A
// concurrent creation of the same group by another administrator resolves
// to exactly one winner; the loser aborts with core.ErrGroupExists after
// absorbing the winner's records.
func (a *Admin) CreateGroup(ctx context.Context, group string, members []string) error {
	if err := a.prepareCreate(ctx, group); err != nil {
		return err
	}
	err := a.mutate(ctx, group, func() (*core.Update, error) {
		return a.mgr.CreateGroup(group, members)
	})
	if err != nil {
		return err
	}
	// The creation's records are applied: the group's cache may page from
	// here on (creation itself is necessarily O(group) resident).
	a.enablePaging(group)
	return a.certify(group, core.OpCreateGroup, "")
}

// AddUser runs Algorithm 2 for one user: a batch of one.
func (a *Admin) AddUser(ctx context.Context, group, user string) error {
	return a.AddUsers(ctx, group, []string{user})
}

// AddUsers runs the batched form of Algorithm 2 — one ciphertext extension
// per touched partition for the whole batch — and publishes the affected
// records. Each membership change is certified individually, so the
// operation log holds one entry per user whatever the batch size.
func (a *Admin) AddUsers(ctx context.Context, group string, users []string) error {
	err := a.mutate(ctx, group, func() (*core.Update, error) {
		return a.mgr.AddUsers(group, users)
	})
	if err != nil {
		return err
	}
	for _, u := range users {
		if err := a.certify(group, core.OpAddUser, u); err != nil {
			return err
		}
	}
	return nil
}

// RemoveUser runs Algorithm 3 for one user: a batch of one.
func (a *Admin) RemoveUser(ctx context.Context, group, user string) error {
	return a.RemoveUsers(ctx, group, []string{user})
}

// RemoveUsers runs the batched form of Algorithm 3 — one fresh group key
// and at most one re-key pass per remaining partition for the whole batch —
// and publishes every affected record.
func (a *Admin) RemoveUsers(ctx context.Context, group string, users []string) error {
	err := a.mutate(ctx, group, func() (*core.Update, error) {
		return a.mgr.RemoveUsers(group, users)
	})
	if err != nil {
		return err
	}
	for _, u := range users {
		if err := a.certify(group, core.OpRemoveUser, u); err != nil {
			return err
		}
	}
	return nil
}

// RekeyGroup rotates the group key and republishes all records.
func (a *Admin) RekeyGroup(ctx context.Context, group string) error {
	err := a.mutate(ctx, group, func() (*core.Update, error) {
		return a.mgr.RekeyGroup(group)
	})
	if err != nil {
		return err
	}
	return a.certify(group, core.OpRekey, "")
}

// Repartition forces a dense re-layout of a group.
func (a *Admin) Repartition(ctx context.Context, group string) error {
	err := a.mutate(ctx, group, func() (*core.Update, error) {
		return a.mgr.Repartition(group)
	})
	if err != nil {
		return err
	}
	return a.certify(group, core.OpRepartition, "")
}

// sealedGKObject stores the enclave-sealed group key next to the partition
// records — Algorithm 1 line 7's "Store: (1) sealed gk". It is opaque to the
// cloud and to curious administrators. Like the group header and the
// directory buckets (named by internal/partition, which encodes them), its
// name is reserved: clients skip names with the "_" prefix.
const sealedGKObject = "_sealed_gk"

// updateObjects encodes an update's writes in commit order: directory
// buckets (sorted), partition records (sorted), and the closing objects — the
// group header, which readers start from, then the sealed group key when it
// changed. Records sit next to the header because a reader checks the two
// against each other: on a store that applies an update as a chain of
// writes, the fewer writes between them, the shorter the window in which a
// reader of that partition has to wait.
func (a *Admin) updateObjects(up *core.Update) (puts, closing []storage.Object, err error) {
	names := make([]string, 0, len(up.Buckets))
	for name := range up.Buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		puts = append(puts, storage.Object{Name: name, Data: up.Buckets[name]})
	}
	names = names[:0]
	for id := range up.Put {
		names = append(names, id)
	}
	sort.Strings(names)
	scheme := a.mgr.Scheme()
	for _, id := range names {
		blob, err := up.Put[id].Marshal(scheme)
		if err != nil {
			return nil, nil, err
		}
		puts = append(puts, storage.Object{Name: id, Data: blob})
	}
	closing = append(closing, storage.Object{Name: partition.HeaderObject, Data: up.Header})
	if up.SealedGK != nil {
		closing = append(closing, storage.Object{Name: sealedGKObject, Data: up.SealedGK})
	}
	return puts, closing, nil
}

// apply pushes an update as one storage.Commit conditional on the
// directory version this admin tracks and fenced by its membership epoch: on
// a store with a native Commit that is one round trip and all-or-nothing —
// a stale admin conflicts, a zombie is fenced, and in both cases nothing was
// written. Objects go buckets → records → deletes → group header → sealed
// group key (when it changed), the order the chain fallback (a store without
// native Commit) needs: its first conditional write is the race arbiter, and
// the header — which every update rewrites and every reader and restore
// starts from — comes at the end, so a peer restoring from any mid-chain
// snapshot read a version that at least one remaining conditional write
// still advances past — its own first write then conflicts instead of
// committing on the torn snapshot. An update larger than
// storage.MaxCommitPayload (a very large creation) is split into consecutive
// commits, the closing objects in the final one, so the same arbiter covers a
// failure between them. Any failure invalidates the tracked version: it may
// no longer match the directory, and the next mutate re-syncs through
// restore. An update with no header changed nothing (an empty batch) and is
// not committed at all.
func (a *Admin) apply(ctx context.Context, up *core.Update) error {
	if up.Header == nil {
		return nil
	}
	v, err := a.baseVersion(ctx, up.Group)
	if err != nil {
		return err
	}
	v, err = a.commitUpdate(ctx, up, v, storage.MaxCommitPayload)
	if err != nil {
		a.forgetVersion(up.Group)
		return fmt.Errorf("admin: committing %s: %w", up.Group, err)
	}
	a.trackVersion(up.Group, v)
	return nil
}

// commitUpdate commits an update on top of directory version v, at most
// maxPayload bytes per commit, and returns the directory version it produced.
func (a *Admin) commitUpdate(ctx context.Context, up *core.Update, v uint64, maxPayload int) (uint64, error) {
	puts, closing, err := a.updateObjects(up)
	if err != nil {
		return 0, err
	}
	epoch := a.fenceEpoch()
	// Every commit leaves room for the closing objects, so the final one
	// fits whatever is still pending when the buckets and records run out.
	budget := maxPayload
	for _, o := range closing {
		budget -= len(o.Data)
	}
	objs := make([]storage.Object, 0, len(puts)+len(up.Delete)+len(closing))
	size := 0
	for _, o := range puts {
		if size+len(o.Data) > budget && len(objs) > 0 {
			if v, err = storage.Commit(ctx, a.store, up.Group, objs, v, epoch); err != nil {
				return 0, err
			}
			objs, size = objs[:0], 0
		}
		objs = append(objs, o)
		size += len(o.Data)
	}
	for _, id := range up.Delete {
		objs = append(objs, storage.Object{Name: id, Delete: true})
	}
	return storage.Commit(ctx, a.store, up.Group, append(objs, closing...), v, epoch)
}

// recordFetch returns the store-backed loader that rehydrates one evicted
// partition record. Hydrations happen lazily, long after whatever request
// installed the fetch, so it runs under a background context.
func (a *Admin) recordFetch(group string) core.RecordFetch {
	scheme := a.mgr.Scheme()
	return func(partitionID string) (*core.PartitionRecord, error) {
		blob, err := a.store.Get(context.Background(), group, partitionID)
		if err != nil {
			return nil, err
		}
		return core.UnmarshalRecord(scheme, blob)
	}
}

// enablePaging installs the store-backed page source for a group whose
// records are durably in the cloud, turning its page cache evictable. A
// group the manager no longer holds (concurrent drop) is a no-op.
func (a *Admin) enablePaging(group string) {
	_ = a.mgr.SetPageSource(group, a.recordFetch(group))
}

// RestoreGroup rebuilds the manager's state for one group from the cloud. It
// reads the group header and the sealed group key — O(partitions), not
// O(group), in one round trip — and hands the manager lazy fetches for
// everything else: no directory bucket and no partition record is read
// until an operation touches it. Use after an administrator restart (the enclave must hold the
// same master secret, via EcallRestore on the same platform).
func (a *Admin) RestoreGroup(ctx context.Context, group string) error {
	// The version is read before any content: if a writer lands during the
	// restore, the tracked version is stale and this admin's first
	// conditional write conflicts — triggering another restore — instead of
	// silently building on a torn snapshot.
	ver, err := a.store.Version(ctx, group)
	if err != nil {
		return err
	}
	if ver == 0 {
		// Never written, so there is no header to read: the group does not
		// exist yet, and a fresh create skips the read round trip.
		return fmt.Errorf("%w: %s", storage.ErrNotFound, group)
	}
	// The header and the sealed key are independent reads, both after the
	// version: one round trip for the two.
	data, errs := storage.GetMany(ctx, a.store, group, partition.HeaderObject, sealedGKObject)
	header, sealedGK := data[0], data[1]
	if errs[0] != nil {
		return errs[0]
	}
	idx, err := partition.UnmarshalIndex(header)
	if err != nil {
		return fmt.Errorf("admin: %s/%s: %w", group, partition.HeaderObject, err)
	}
	// Like record hydrations, bucket loads happen long after the request
	// that restored the group, so they run under a background context.
	idx.SetBucketFetch(func(object string) ([]byte, error) {
		return a.store.Get(context.Background(), group, object)
	})
	if errors.Is(errs[1], storage.ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrNoSealedKey, group)
	}
	if errs[1] != nil {
		return errs[1]
	}
	if err := a.mgr.RestoreGroupPaged(group, idx, sealedGK, a.recordFetch(group)); err != nil {
		return err
	}
	a.trackVersion(group, ver)
	return nil
}

// DropGroup releases this admin's local state for a group (manager cache
// and tracked directory version) without touching the cloud — the hand-over
// half of moving a group to another administrator.
func (a *Admin) DropGroup(group string) {
	a.mgr.DropGroup(group)
	a.forgetVersion(group)
}

// Store exposes the cloud store this admin applies to (the cluster lease
// manager shares it).
func (a *Admin) Store() storage.Store { return a.store }

// certify appends to the operation log when one is configured.
func (a *Admin) certify(group string, kind core.OpKind, user string) error {
	if a.log == nil {
		return nil
	}
	_, err := a.log.Append(a.Name, group, kind, user)
	return err
}
