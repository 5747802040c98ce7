package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// Lease ownership errors.
var (
	// ErrLeaseHeld reports a group lease currently held by another live
	// shard; the caller should route there (or retry after expiry).
	ErrLeaseHeld = errors.New("cluster: group lease held by another shard")
	// ErrLeaseLost reports a renewal that found the lease taken over.
	ErrLeaseLost = errors.New("cluster: group lease lost")
)

// errAcquireRace marks an ErrLeaseHeld caused by losing the CAS write race
// for a claimable lease — as opposed to probing a lease that was simply
// held, fenced, or reserved. Only genuine races should grow the steal
// backoff: a shard that merely asked at the wrong time is not contending.
var errAcquireRace = errors.New("acquisition race")

// Lease is one shard's claim on a group, stored in the cloud next to the
// group's records (in its own directory, so renewals never wake the group's
// long-polling clients). Epoch increases with every ownership change or
// renewal; Expires bounds how long a crashed owner blocks takeover.
// RingEpoch is the cluster membership epoch the writer operated under — a
// shard whose membership view is OLDER than the lease's RingEpoch has been
// superseded and must neither acquire nor renew, even if the lease is
// expired; that is the lease half of the fencing the storage layer enforces
// on data writes.
// HandedOff marks a release performed by the membership hand-off protocol
// (as opposed to a crash expiry or a graceful shutdown): for one TTL the
// group is reserved for its ring owner under the stamped epoch, keeping the
// previous owner's stale in-flight requests from snatching the lease right
// back and stranding the group.
type Lease struct {
	Owner     string    `json:"owner"`
	Epoch     uint64    `json:"epoch"`
	RingEpoch uint64    `json:"ring_epoch,omitempty"`
	HandedOff bool      `json:"handed_off,omitempty"`
	Expires   time.Time `json:"expires"`
}

// leaseDirPrefix keeps lease directories clearly outside the group-name
// space (group directories are plain group names; clients never list this).
const leaseDirPrefix = "_cluster_lease/"

// leaseObject is the single object inside a lease directory.
const leaseObject = "lease"

func leaseDir(group string) string { return leaseDirPrefix + group }

// leaseStore wraps the CAS operations of the lease protocol. The directory
// version read with the lease is the token every write conditions on, so
// two shards racing for the same expired lease resolve to exactly one
// winner — the other fails its PutIf and backs off. Writes additionally
// carry the caller's membership epoch as a fencing token: the store rejects
// a lease write from a superseded membership before the CAS even runs.
type leaseStore struct {
	store storage.Store
	now   func() time.Time
}

// read returns the current lease (zero Lease if none) and the directory
// version to condition the next write on, in one store read. A missing
// lease reads at version 0: leases are released, never deleted, so its
// directory was never written.
func (ls *leaseStore) read(ctx context.Context, group string) (Lease, uint64, error) {
	blob, ver, err := ls.store.GetVersioned(ctx, leaseDir(group), leaseObject)
	if errors.Is(err, storage.ErrNotFound) {
		return Lease{}, 0, nil
	}
	if err != nil {
		return Lease{}, 0, err
	}
	var l Lease
	if err := json.Unmarshal(blob, &l); err != nil {
		return Lease{}, 0, fmt.Errorf("cluster: corrupt lease for %s: %w", group, err)
	}
	return l, ver, nil
}

// write commits a lease conditionally on the version returned by read,
// fenced by the writer's membership epoch.
func (ls *leaseStore) write(ctx context.Context, group string, l Lease, ifVersion uint64) error {
	blob, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return ls.store.PutFenced(ctx, leaseDir(group), leaseObject, blob, ifVersion, l.RingEpoch)
}

// acquire claims the group for owner with the given TTL under membership
// epoch ringEpoch; ringOwner says whether the caller is the group's ring
// owner under that membership. It succeeds when the lease is free, expired,
// or already ours (refreshing it); a live foreign lease, a lost CAS race,
// or a lease already stamped by a NEWER membership epoch returns
// ErrLeaseHeld. A freshly handed-off lease (released by the hand-off
// protocol within the last TTL — including one orphaned at an older epoch
// by back-to-back membership changes) is reserved for the ring owner: a
// non-owner (e.g. the previous owner's stale in-flight request) may claim
// it only after the grace period, which exists solely for the case where
// the ring owner died before adopting. On success it also returns the
// lease it replaced (zero for a never-leased group), from the same read the
// CAS is conditioned on.
func (ls *leaseStore) acquire(ctx context.Context, group, owner string, ttl time.Duration, ringEpoch uint64, ringOwner bool) (next, prev Lease, err error) {
	cur, ver, err := ls.read(ctx, group)
	if err != nil {
		return Lease{}, Lease{}, err
	}
	if cur.RingEpoch > ringEpoch {
		// The membership moved on without us: even an expired lease must not
		// be reclaimed by a shard from a superseded epoch.
		return Lease{}, Lease{}, fmt.Errorf("%w: %s stamped by membership epoch %d, ours is %d", ErrLeaseHeld, group, cur.RingEpoch, ringEpoch)
	}
	now := ls.now()
	if cur.Owner != "" && cur.Owner != owner && now.Before(cur.Expires) {
		return Lease{}, Lease{}, fmt.Errorf("%w: %s owns %s until %s", ErrLeaseHeld, cur.Owner, group, cur.Expires.Format(time.RFC3339Nano))
	}
	if cur.HandedOff && !ringOwner && now.Before(cur.Expires.Add(ttl)) {
		return Lease{}, Lease{}, fmt.Errorf("%w: %s handed off to its epoch-%d ring owner", ErrLeaseHeld, group, ringEpoch)
	}
	next = Lease{Owner: owner, Epoch: cur.Epoch + 1, RingEpoch: ringEpoch, Expires: now.Add(ttl)}
	if err := ls.write(ctx, group, next, ver); err != nil {
		if errors.Is(err, storage.ErrVersionConflict) || errors.Is(err, storage.ErrFenced) {
			return Lease{}, Lease{}, fmt.Errorf("%w: lost %w for %s", ErrLeaseHeld, errAcquireRace, group)
		}
		return Lease{}, Lease{}, err
	}
	return next, cur, nil
}

// renew extends an owned lease. Finding another owner (takeover after an
// expiry we slept through), a handed-off release (this shard's own drain
// racing its renewal ticker), a newer membership stamp, or losing the CAS
// race returns ErrLeaseLost.
func (ls *leaseStore) renew(ctx context.Context, group, owner string, ttl time.Duration, ringEpoch uint64) (Lease, error) {
	cur, ver, err := ls.read(ctx, group)
	if err != nil {
		return Lease{}, err
	}
	if cur.Owner != owner {
		return Lease{}, fmt.Errorf("%w: %s now owned by %q", ErrLeaseLost, group, cur.Owner)
	}
	if cur.HandedOff {
		// The hand-off protocol released this lease (possibly between this
		// renewal's read and write): renewing would resurrect a lease the
		// new ring owner is entitled to, stranding the group behind a
		// drained shard. The new owner ACQUIRES; nobody renews a hand-off.
		return Lease{}, fmt.Errorf("%w: %s was handed off at membership epoch %d", ErrLeaseLost, group, cur.RingEpoch)
	}
	if cur.RingEpoch > ringEpoch {
		return Lease{}, fmt.Errorf("%w: %s stamped by membership epoch %d, ours is %d", ErrLeaseLost, group, cur.RingEpoch, ringEpoch)
	}
	next := Lease{Owner: owner, Epoch: cur.Epoch + 1, RingEpoch: ringEpoch, Expires: ls.now().Add(ttl)}
	if err := ls.write(ctx, group, next, ver); err != nil {
		if errors.Is(err, storage.ErrVersionConflict) || errors.Is(err, storage.ErrFenced) {
			return Lease{}, fmt.Errorf("%w: renewal race for %s", ErrLeaseLost, group)
		}
		return Lease{}, err
	}
	return next, nil
}

// releaseAttempts bounds release's conflict-retry loop. The usual
// conflicting writer is this shard's OWN renewal ticker (one write per
// tick), so one retry almost always suffices; a persistent foreign writer
// shows up as a changed owner on the re-read and ends the loop.
const releaseAttempts = 4

// release hands a lease back (graceful shutdown or membership hand-off):
// the record stays but expires immediately, stamped with the releasing
// shard's membership epoch, so the NEW owner can take over at once while
// shards from older epochs stay fenced out. handoff marks the release as
// part of the hand-off protocol (see Lease.HandedOff); plain shutdown
// releases are claimable by anyone immediately.
//
// A lost CAS race is NOT silently swallowed: the racer may be this shard's
// own renewal ticker, and treating its win as "released" would undo the
// hand-off (the lease would stay live for a whole TTL). The release
// re-reads and retries until the record is expired or owned by someone
// else.
func (ls *leaseStore) release(ctx context.Context, group, owner string, ringEpoch uint64, handoff bool) error {
	for attempt := 0; attempt < releaseAttempts; attempt++ {
		cur, ver, err := ls.read(ctx, group)
		if err != nil {
			return err
		}
		if cur.Owner != owner {
			return nil // someone else owns it now; nothing to release
		}
		epoch := ringEpoch
		if epoch < cur.RingEpoch {
			epoch = cur.RingEpoch
		}
		expired := Lease{Owner: owner, Epoch: cur.Epoch + 1, RingEpoch: epoch, HandedOff: handoff, Expires: ls.now()}
		err = ls.write(ctx, group, expired, ver)
		if err == nil {
			return nil
		}
		if !errors.Is(err, storage.ErrVersionConflict) && !errors.Is(err, storage.ErrFenced) {
			return err
		}
	}
	return fmt.Errorf("cluster: releasing %s for %s: retries exhausted", group, owner)
}
