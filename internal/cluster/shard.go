package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// DefaultLeaseTTL is the production lease duration; tests shrink it to
// exercise expiry-driven takeover quickly.
const DefaultLeaseTTL = 15 * time.Second

// DefaultStealBackoffStep is the unit of the lease-steal backoff: a shard
// that is NOT the ring owner of a group waits its ring-order priority times
// this step (plus jitter, doubling per consecutive loss) before racing an
// expired lease. After an owner dies, the surviving shards therefore claim
// its groups in ring order instead of stampeding the CAS — the first
// failover candidate usually wins on its first try and everyone else never
// fires a conflicting write.
const DefaultStealBackoffStep = 25 * time.Millisecond

// stealBackoffMaxShift caps the exponential growth of the per-group steal
// backoff (2^6 · step ≈ 1.6 s at the default step).
const stealBackoffMaxShift = 6

// Shard is one admin node of the cluster: an enclave-backed CAS
// administrator that serves the /admin/* surface only for groups whose
// lease it holds. It is an http.Handler — the Router forwards to it, and a
// shard that does not (or cannot) own the requested group answers 503 so
// the router fails over.
//
// A shard tracks the cluster membership it last learned (ApplyMembership):
// the membership epoch fences every storage write the shard's admin issues,
// and an epoch bump that moves a group's arc away triggers the hand-off
// protocol — stop renewing, flush in-flight operations under the per-group
// lock, release the lease stamped with the new epoch, and let the new owner
// adopt through the existing restore-and-rotate path.
type Shard struct {
	// ID is the shard's ring identity and lease owner name.
	ID string
	// Admin is the CAS-mode administrator applying to the shared store.
	Admin *admin.Admin
	// Encl is the shard's enclave (sharing the cluster master secret).
	Encl *enclave.IBBEEnclave

	// info is what /info serves and every /provision answer repeats: the
	// shard's params, master public key, certificate chain and capacity.
	info admin.SystemInfo
	// extract derives a user's wrapped key for /provision, fixed when the
	// shard is minted: its own enclave in sealed mode, the quorum it
	// coordinates in threshold mode.
	extract ExtractFunc

	// StealBackoffStep overrides DefaultStealBackoffStep (tests).
	StealBackoffStep time.Duration

	ls  *leaseStore
	ttl time.Duration
	// obs is the cluster's shared observability bundle (nil = disabled).
	obs *clusterObs

	mu         sync.Mutex
	leases     map[string]Lease
	membership *Membership
	// stealFail counts consecutive lost acquisition races per group,
	// driving the exponential half of the steal backoff.
	stealFail map[string]int
	stopped   bool
	// view is the cluster's routing view: a fenced write refreshes it, and
	// whatever it adopts reaches this shard through ApplyMembership.
	view *membership.View

	startOnce sync.Once
	started   bool
	stopOnce  sync.Once
	stopc     chan struct{}
	done      chan struct{}
}

// newShard builds the shard named id over its minted enclave, admin,
// /info contents and extraction path. Every conditional write the admin
// issues carries the shard's applied membership epoch as a fencing token.
func (c *Cluster) newShard(id string, adm *admin.Admin, encl *enclave.IBBEEnclave, m *Membership, info admin.SystemInfo, extract ExtractFunc) *Shard {
	ttl := c.opts.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	now := c.opts.now
	if now == nil {
		now = time.Now
	}
	s := &Shard{
		ID:         id,
		Admin:      adm,
		Encl:       encl,
		info:       info,
		extract:    extract,
		ls:         &leaseStore{store: c.Store, now: now},
		ttl:        ttl,
		obs:        c.co,
		leases:     make(map[string]Lease),
		membership: m,
		stealFail:  make(map[string]int),
		view:       c.view,
		stopc:      make(chan struct{}),
		done:       make(chan struct{}),
	}
	adm.SetFence(s.Epoch)
	return s
}

// Epoch returns the membership epoch this shard has applied: the fencing
// token on every commit of its admin, and the epoch stamped on every
// envelope it writes.
func (s *Shard) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.membership == nil {
		return 0
	}
	return s.membership.Epoch
}

// Membership returns the membership this shard last learned.
func (s *Shard) Membership() *Membership {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.membership
}

// ApplyMembership installs a newer membership on this shard. Groups whose
// arc moved to another member are handed off: in-flight operations are
// flushed under the per-group admin lock, the local cache dropped, and the
// lease released stamped with the NEW epoch — so the new owner takes over
// immediately while shards still on older epochs stay fenced out. Stale or
// duplicate memberships are ignored; a stopped shard (crashed process)
// cannot hand off — its leases simply expire.
func (s *Shard) ApplyMembership(ctx context.Context, m *Membership) error {
	if m == nil {
		return nil
	}
	s.mu.Lock()
	if s.stopped || (s.membership != nil && m.Epoch <= s.membership.Epoch) {
		s.mu.Unlock()
		return nil
	}
	s.membership = m
	var lost []string
	for g := range s.leases {
		if m.Owner(g) != s.ID {
			lost = append(lost, g)
		}
	}
	s.mu.Unlock()
	sort.Strings(lost)
	var firstErr error
	for _, g := range lost {
		if err := s.handOff(ctx, g, m.Epoch); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// handOff drains one group out of this shard: the per-group admin lock
// flushes whatever operation is mid-apply, then the local cache is dropped
// and the lease released under the new epoch. The new owner adopts the
// group's cloud state (restore + heal-rotate) on its first request.
func (s *Shard) handOff(ctx context.Context, group string, epoch uint64) error {
	unlock := s.Admin.LockGroup(group)
	defer unlock()
	s.mu.Lock()
	_, held := s.leases[group]
	delete(s.leases, group)
	s.mu.Unlock()
	if !held {
		return nil
	}
	s.Admin.DropGroup(group)
	if err := s.ls.release(ctx, group, s.ID, epoch, true); err != nil {
		return fmt.Errorf("cluster: %s releasing %s for hand-off: %w", s.ID, group, err)
	}
	s.obs.leaseEvent(s.ID, "handoff")
	return nil
}

// Start launches the lease renewal loop.
func (s *Shard) Start() {
	s.startOnce.Do(func() {
		s.mu.Lock()
		s.started = true
		s.mu.Unlock()
		go s.run()
	})
}

// stopLoop halts the renewal loop (if it ever started) and waits for it.
func (s *Shard) stopLoop() {
	s.stopOnce.Do(func() { close(s.stopc) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
}

// Kill stops the shard abruptly — renewals cease but leases stay in the
// cloud until they expire, exactly like a crashed admin process. Peers take
// the groups over through lease expiry.
func (s *Shard) Kill() {
	s.stopLoop()
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Shutdown stops the shard gracefully: renewals cease and every held lease
// is released (expired in place), so peers can take over immediately.
func (s *Shard) Shutdown(ctx context.Context) error {
	s.stopLoop()
	s.mu.Lock()
	s.stopped = true
	groups := make([]string, 0, len(s.leases))
	for g := range s.leases {
		groups = append(groups, g)
	}
	s.leases = make(map[string]Lease)
	epoch := uint64(0)
	if s.membership != nil {
		epoch = s.membership.Epoch
	}
	s.mu.Unlock()
	var firstErr error
	for _, g := range groups {
		s.Admin.DropGroup(g)
		if err := s.ls.release(ctx, g, s.ID, epoch, false); err != nil && firstErr == nil {
			firstErr = err
		}
		s.obs.leaseEvent(s.ID, "release")
	}
	return firstErr
}

// MetricsTotal returns the shard's weighted primitive-operation total
// (ibbe.Metrics.Total of its enclave's scheme): pairings, exponentiations
// and scalar multiplications weighted by relative latency. The autoscaler
// samples deltas of this counter as the shard's op rate.
func (s *Shard) MetricsTotal() int64 {
	if m := s.Encl.Scheme().Metrics; m != nil {
		return m.Total()
	}
	return 0
}

// Stopped reports whether the shard was killed or shut down.
func (s *Shard) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// OwnedGroups returns the groups this shard currently holds leases for,
// sorted.
func (s *Shard) OwnedGroups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.leases))
	for g := range s.leases {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// run renews held leases at a third of the TTL until the shard stops.
func (s *Shard) run() {
	defer close(s.done)
	t := time.NewTicker(s.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			s.renewAll()
		}
	}
}

func (s *Shard) renewAll() {
	ctx, cancel := context.WithTimeout(context.Background(), s.ttl)
	defer cancel()
	for _, g := range s.OwnedGroups() {
		l, err := s.ls.renew(ctx, g, s.ID, s.ttl, s.Epoch())
		if err == nil {
			s.mu.Lock()
			// Only refresh a lease the shard still tracks: a hand-off can
			// have drained the group between the snapshot above and this
			// renewal, and re-inserting it would resurrect the ownership
			// the drain just gave away.
			if _, still := s.leases[g]; still {
				s.leases[g] = l
			}
			s.mu.Unlock()
			s.obs.leaseEvent(s.ID, "renew")
			continue
		}
		if errors.Is(err, ErrLeaseLost) {
			s.obs.leaseEvent(s.ID, "expire")
			// Another shard took the group over (we must have been stalled
			// past expiry, or a newer membership moved it): stop serving it
			// and forget the local cache.
			s.mu.Lock()
			delete(s.leases, g)
			s.mu.Unlock()
			s.Admin.DropGroup(g)
		}
		// Transient store errors keep the lease; the next tick retries and
		// CAS keeps a stale-but-renewing shard from corrupting anything.
	}
}

// ensureOwnership makes this shard the serving owner of a group: fast-path
// if a live lease is already held, otherwise it tries to acquire one (which
// succeeds only if the lease is free or expired) and then adopts the
// group's cloud state. ErrLeaseHeld means another shard owns the group.
// absent reports whether this call adopted the group and found no cloud
// state for it (the create path).
//
// Before racing for a lease it does not hold, the shard serves its steal
// backoff: ring-order priority staggers the contenders (the rightful owner
// under the current membership waits nothing) and consecutive losses grow
// the wait exponentially, cutting CAS conflict churn during mass failover.
func (s *Shard) ensureOwnership(ctx context.Context, group string) (absent bool, err error) {
	s.mu.Lock()
	l, held := s.leases[group]
	stopped := s.stopped
	m := s.membership
	s.mu.Unlock()
	if stopped {
		return false, fmt.Errorf("cluster: shard %s is stopped", s.ID)
	}
	if m != nil && !m.Has(s.ID) {
		// A drained leaver must never (re)claim ownership: the router only
		// routes to members, so a lease it grabbed — e.g. through a stale
		// in-flight request that arrived mid-drain — would strand the group
		// behind an owner nobody queries. Answer "held" so the gateway
		// retries on a member.
		return false, fmt.Errorf("%w: shard %s is not a member at epoch %d", ErrLeaseHeld, s.ID, m.Epoch)
	}
	if held && s.ls.now().Before(l.Expires) {
		return false, nil
	}
	if delay := s.stealDelay(m, group); delay > 0 {
		if err := sleepCtx(ctx, delay); err != nil {
			return false, err
		}
		// The membership can have changed while we slept (that is exactly
		// when contention spikes): re-read it so the acquisition below runs
		// under the freshest view.
		s.mu.Lock()
		m = s.membership
		s.mu.Unlock()
		if m != nil && !m.Has(s.ID) {
			return false, fmt.Errorf("%w: shard %s is not a member at epoch %d", ErrLeaseHeld, s.ID, m.Epoch)
		}
	}
	ringOwner := m != nil && m.Owner(group) == s.ID
	lease, prev, err := s.ls.acquire(ctx, group, s.ID, s.ttl, s.Epoch(), ringOwner)
	if err != nil {
		// Only a lost CAS race grows the backoff — finding the lease held,
		// fenced, or reserved is a routine probe (e.g. a router failover
		// sweep), and counting those would inflate the wait for the next
		// REAL failover. A held-probe even resets the counter: the group is
		// evidently not in a contention storm.
		if errors.Is(err, errAcquireRace) {
			s.noteStealLoss(group)
		} else if errors.Is(err, ErrLeaseHeld) {
			s.clearStealLoss(group)
		}
		return false, err
	}
	s.clearStealLoss(group)
	s.mu.Lock()
	// Re-validate under the lock: a membership change can have landed while
	// the acquisition was in flight — ApplyMembership's hand-off scan could
	// not see this lease yet, so IT won't drain the group. If the new
	// membership drained this shard out entirely, or moved the group's arc
	// to another member since the epoch the lease was stamped with, keeping
	// the lease would strand the group — give it straight back as a
	// hand-off.
	if cm := s.membership; cm != nil &&
		(!cm.Has(s.ID) || (cm.Epoch > lease.RingEpoch && cm.Owner(group) != s.ID)) {
		s.mu.Unlock()
		_ = s.ls.release(ctx, group, s.ID, cm.Epoch, true)
		return false, fmt.Errorf("%w: shard %s lost %s to membership epoch %d mid-acquisition", ErrLeaseHeld, s.ID, group, cm.Epoch)
	}
	s.leases[group] = lease
	s.mu.Unlock()
	switch prev.Owner {
	case "":
		s.obs.leaseEvent(s.ID, "acquire")
	case s.ID:
		s.obs.leaseEvent(s.ID, "reacquire")
	default:
		s.obs.leaseEvent(s.ID, "steal")
	}
	if prev.Owner == s.ID {
		// Re-acquired our own lapsed lease with nobody in between: the
		// local cache is still authoritative.
		return false, nil
	}
	return s.adopt(ctx, group, prev.Owner != "")
}

// stealDelay computes the wait this shard owes before racing for a lease it
// does not hold: priority · step  +  (2^losses − 1) · step  +  jitter, where
// priority is the shard's position in the group's ring-order failover
// sequence under the current membership (the owner itself waits nothing on
// its first attempt) and jitter is a deterministic per-(shard, group) slice
// of one step, de-synchronising equal-priority contenders.
func (s *Shard) stealDelay(m *Membership, group string) time.Duration {
	step := s.StealBackoffStep
	if step <= 0 {
		step = DefaultStealBackoffStep
	}
	priority := 0
	if m != nil {
		owners := m.Owners(group)
		priority = len(owners) // not on the ring at all: lowest priority
		for i, id := range owners {
			if id == s.ID {
				priority = i
				break
			}
		}
	}
	s.mu.Lock()
	losses := s.stealFail[group]
	s.mu.Unlock()
	if losses > stealBackoffMaxShift {
		losses = stealBackoffMaxShift
	}
	if priority == 0 && losses == 0 {
		return 0
	}
	delay := time.Duration(priority)*step + time.Duration((uint64(1)<<losses)-1)*step
	jitter := time.Duration(membership.Hash(fmt.Sprintf("steal|%s|%s|%d", s.ID, group, priority)) % uint64(step))
	return delay + jitter
}

func (s *Shard) noteStealLoss(group string) {
	s.mu.Lock()
	s.stealFail[group]++
	s.mu.Unlock()
}

func (s *Shard) clearStealLoss(group string) {
	s.mu.Lock()
	delete(s.stealFail, group)
	s.mu.Unlock()
}

// adopt rebuilds local state for a newly acquired group. Taking over from
// another (possibly crashed) shard additionally rotates the group key: a
// predecessor that died mid-apply can leave partitions wrapped under
// different group keys, and the rotation re-keys every partition under one
// fresh key — the cluster's convergence step. A group with no cloud records
// yet (the create path) adopts trivially and reports it absent.
func (s *Shard) adopt(ctx context.Context, group string, takeover bool) (absent bool, err error) {
	s.Admin.DropGroup(group)
	err = s.Admin.RestoreGroup(ctx, group)
	if errors.Is(err, storage.ErrNotFound) {
		return true, nil // group not created yet; the create op will populate it
	}
	if errors.Is(err, admin.ErrNoSealedKey) {
		return true, nil // predecessor died inside create; treated as not created
	}
	if errors.Is(err, core.ErrGroupExists) {
		return false, nil // a concurrent request already rebuilt the group
	}
	if err != nil {
		return false, fmt.Errorf("cluster: shard %s adopting %s: %w", s.ID, group, err)
	}
	if takeover {
		if err := s.Admin.RekeyGroup(ctx, group); err != nil {
			return false, fmt.Errorf("cluster: shard %s healing %s: %w", s.ID, group, err)
		}
	}
	return false, nil
}

// holdsLive reports whether the shard currently holds an unexpired lease on
// the group.
func (s *Shard) holdsLive(group string) bool {
	s.mu.Lock()
	l, held := s.leases[group]
	s.mu.Unlock()
	return held && s.ls.now().Before(l.Expires)
}

// sleepCtx sleeps for dur unless the context ends first.
func sleepCtx(ctx context.Context, dur time.Duration) error {
	if dur <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
