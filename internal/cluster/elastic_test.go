package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// TestClusterElasticGrowShrinkUnderLoad is the acceptance scenario for the
// elastic membership layer: a live 2-shard cluster grows to 4 and shrinks
// back to 2 WHILE a concurrent add/remove workload runs against every
// group through the gateway. It must come out with zero failed operations,
// zero failed client decrypts, arc-bounded group movement on every epoch,
// and ownership exactly matching the final ring.
func TestClusterElasticGrowShrinkUnderLoad(t *testing.T) {
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
	ctx := context.Background()

	const groups = 6
	groupName := func(i int) string { return fmt.Sprintf("elastic-%d", i) }
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := tc.api.CreateGroup(ctx, g, groupUsers(g, 4)); err != nil {
			t.Fatal(err)
		}
	}
	m2 := tc.c.Membership()
	if m2.Epoch != 1 || len(m2.Members()) != 2 {
		t.Fatalf("start membership: epoch %d, members %v", m2.Epoch, m2.Members())
	}

	// Concurrent workload: one driver per group churns membership through
	// the gateway for the whole grow/shrink cycle.
	stop := make(chan struct{})
	errc := make(chan error, groups)
	var wg sync.WaitGroup
	for i := 0; i < groups; i++ {
		g := groupName(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				u := fmt.Sprintf("%s-churn%03d@example.com", g, k)
				if err := tc.api.AddUser(ctx, g, u); err != nil {
					errc <- fmt.Errorf("%s add %s: %w", g, u, err)
					return
				}
				if err := tc.api.RemoveUser(ctx, g, u); err != nil {
					errc <- fmt.Errorf("%s remove %s: %w", g, u, err)
					return
				}
			}
		}()
	}

	// Grow 2 → 4 mid-workload.
	time.Sleep(150 * time.Millisecond)
	s2 := tc.addShard(t, ctx)
	s3 := tc.addShard(t, ctx)
	m4 := tc.c.Membership()
	if m4.Epoch != 3 || len(m4.Members()) != 4 {
		t.Fatalf("grown membership: epoch %d, members %v", m4.Epoch, m4.Members())
	}
	// Arc-bounded movement: a group that changed owner moved TO a joiner.
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if before, after := m2.Owner(g), m4.Owner(g); before != after {
			if after != s2.ID && after != s3.ID {
				t.Fatalf("%s moved %s→%s on grow — not arc-bounded", g, before, after)
			}
		}
	}

	// Let the enlarged cluster serve for a while, then shrink back.
	time.Sleep(300 * time.Millisecond)
	if _, err := tc.c.RemoveShard(ctx, s2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.c.RemoveShard(ctx, s3.ID); err != nil {
		t.Fatal(err)
	}
	final := tc.c.Membership()
	if final.Epoch != 5 || len(final.Members()) != 2 {
		t.Fatalf("final membership: epoch %d, members %v", final.Epoch, final.Members())
	}
	// Same member set as the start ⇒ the exact same assignment.
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if final.Owner(g) != m2.Owner(g) {
			t.Fatalf("%s owner changed across the grow+shrink round trip", g)
		}
	}

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			tc.dumpOwnership(t)
			t.Fatal(err)
		}
	}

	// Every group: one more routed op settles ownership on the final ring
	// owner, then every surviving member must decrypt one shared group key
	// (zero failed client decrypts), and the drained joiners own nothing.
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := tc.api.AddUser(ctx, g, g+"-final@example.com"); err != nil {
			tc.dumpOwnership(t)
			t.Fatalf("settling op on %s: %v", g, err)
		}
		owner := tc.c.Shard(final.Owner(g))
		members, err := owner.Admin.Manager().Members(g)
		if err != nil {
			tc.dumpOwnership(t)
			t.Fatalf("final owner of %s has no state: %v", g, err)
		}
		tc.assertOneGroupKey(t, g, members)
	}
	for _, s := range []*Shard{s2, s3} {
		if got := s.OwnedGroups(); len(got) != 0 {
			t.Fatalf("drained shard %s still owns %v", s.ID, got)
		}
	}
	for _, id := range final.Members() {
		for _, g := range tc.c.Shard(id).OwnedGroups() {
			if final.Owner(g) != id {
				t.Fatalf("%s owns %s but the final ring says %s", id, g, final.Owner(g))
			}
		}
	}
}

// dumpOwnership logs every shard's membership view and lease table plus
// the cloud lease records — the post-mortem for a stuck routed operation.
func (tc *testCluster) dumpOwnership(t *testing.T) {
	t.Helper()
	m := tc.c.Membership()
	t.Logf("cluster membership: epoch %d members %v", m.Epoch, m.Members())
	ls := &leaseStore{store: tc.c.Store, now: time.Now}
	seen := map[string]bool{}
	for _, s := range tc.c.Shards() {
		t.Logf("  %s: epoch %d owned %v", s.ID, s.Epoch(), s.OwnedGroups())
		for _, g := range s.OwnedGroups() {
			seen[g] = true
		}
	}
	for g := range seen {
		cur, _, err := ls.read(context.Background(), g)
		t.Logf("  lease %s: owner=%s ringEpoch=%d expires=%s err=%v", g, cur.Owner, cur.RingEpoch, cur.Expires.Format("15:04:05.000"), err)
	}
}

// TestClusterKillMidHandoffFencesZombie crashes a group's owner in the
// middle of a membership hand-off (the drain never runs, exactly as if the
// process died after the epoch bump reached everyone else). The new owner
// must wait out the lease and adopt; the zombie — still operating under the
// superseded epoch — must be rejected by the storage fence on its first
// write, and the lease record's membership stamp must never move backwards:
// no group is ever owned by two epochs at once. Runs under -race in CI.
func TestClusterKillMidHandoffFencesZombie(t *testing.T) {
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: 700 * time.Millisecond, Seed: 7})
	ctx := context.Background()

	const g = "handoff-kill"
	users := groupUsers(g, 8)
	if err := tc.api.CreateGroup(ctx, g, users); err != nil {
		t.Fatal(err)
	}
	victim := tc.c.Shard(tc.c.Ring().Owner(g))

	// Monitor the cloud lease record throughout: the membership stamp must
	// be monotone, and once the new epoch owns the group the old owner must
	// never reappear.
	ls := &leaseStore{store: tc.c.Store, now: time.Now}
	monStop := make(chan struct{})
	monErr := make(chan error, 1)
	go func() {
		defer close(monErr)
		var lastRing uint64
		newEpochOwned := false
		for {
			select {
			case <-monStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			cur, _, err := ls.read(context.Background(), g)
			if err != nil {
				continue // transient store read race
			}
			if cur.RingEpoch < lastRing {
				monErr <- fmt.Errorf("lease membership stamp moved backwards: %d after %d", cur.RingEpoch, lastRing)
				return
			}
			lastRing = cur.RingEpoch
			if cur.RingEpoch >= 2 && cur.Owner != victim.ID {
				newEpochOwned = true
			}
			if newEpochOwned && cur.Owner == victim.ID {
				monErr <- fmt.Errorf("old owner %s reappeared after the new epoch took over", victim.ID)
				return
			}
		}
	}()

	// The owner dies with the lease live; the membership change that drains
	// it reaches every OTHER shard (a crash mid-hand-off).
	victim.Kill()
	if _, err := tc.c.RemoveShard(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	if e := tc.c.Epoch(); e != 2 {
		t.Fatalf("epoch after removal = %d, want 2", e)
	}
	if ve := victim.Epoch(); ve != 1 {
		t.Fatalf("killed shard learned the new epoch (%d) — test premise broken", ve)
	}

	// The gateway waits out the dead owner's lease; a survivor adopts and
	// serves under epoch 2.
	if err := tc.api.AddUser(ctx, g, "post-handoff@example.com"); err != nil {
		t.Fatalf("op after kill-mid-handoff: %v", err)
	}

	// The zombie resurrects and tries to write from epoch 1: the store must
	// fence it out before it touches anything.
	err := victim.Admin.AddUser(ctx, g, "zombie@example.com")
	if !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("zombie write: %v, want storage.ErrFenced", err)
	}

	close(monStop)
	if err := <-monErr; err != nil {
		t.Fatal(err)
	}

	// Convergence: exactly one SURVIVING shard owns the group (crash
	// failover may settle on any failover candidate, not necessarily the
	// ring owner), its state is authoritative, every member shares one key,
	// and the zombie's user never made it in.
	var newOwner *Shard
	for _, s := range tc.c.Shards() {
		if s.ID == victim.ID {
			continue
		}
		for _, og := range s.OwnedGroups() {
			if og == g {
				if newOwner != nil {
					t.Fatalf("both %s and %s own %s", newOwner.ID, s.ID, g)
				}
				newOwner = s
			}
		}
	}
	if newOwner == nil {
		t.Fatal("no surviving shard adopted the group")
	}
	members, err := newOwner.Admin.Manager().Members(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range members {
		if u == "zombie@example.com" {
			t.Fatal("fenced zombie write still landed")
		}
	}
	tc.assertOneGroupKey(t, g, members)
}

// sameEpochPublishStore lands a targets-only publish of the record at its
// current epoch right before the first membership publish that advances the
// epoch, as a second gateway re-publishing its URLs would.
type sameEpochPublishStore struct {
	storage.Store
	mu       sync.Mutex
	injected error // nil until the competing publish landed
	done     bool
}

func (s *sameEpochPublishStore) PutFenced(ctx context.Context, dir, name string, data []byte, ifVersion, epoch uint64) error {
	if dir == membership.Dir {
		s.mu.Lock()
		if !s.done {
			if rec, ver, err := membership.Load(ctx, s.Store); err == nil && epoch > rec.Epoch {
				s.done = true
				rec.Targets = map[string]string{"shard-0": "http://127.0.0.1:1"}
				s.injected = membership.Publish(ctx, s.Store, rec, ver)
			}
		}
		s.mu.Unlock()
	}
	return s.Store.PutFenced(ctx, dir, name, data, ifVersion, epoch)
}

// TestMembershipChangeSurvivesSameEpochPublish: a same-epoch write that
// lands between a membership change's read and its publish does not
// supersede the change — the member list was computed at the store's epoch
// — so the change recomputes its record on top of it and lands at epoch+1.
func TestMembershipChangeSurvivesSameEpochPublish(t *testing.T) {
	store := &sameEpochPublishStore{Store: storage.NewMemStore(storage.Latency{})}
	c, err := New(Options{Shards: 1, Capacity: 4, LeaseTTL: time.Hour, Seed: 7, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown(context.Background()) })
	ctx := context.Background()
	s, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	next, err := c.Admit(ctx, s.ID)
	if err != nil {
		t.Fatalf("admit after a same-epoch publish: %v", err)
	}
	store.mu.Lock()
	done, injected := store.done, store.injected
	store.mu.Unlock()
	if !done || injected != nil {
		t.Fatalf("the competing same-epoch publish did not land (ran %v): %v", done, injected)
	}
	rec, _, err := membership.Load(ctx, store.Store)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 2 || rec.Epoch != 2 || len(rec.Members) != 2 {
		t.Fatalf("admit landed at epoch %d, store at epoch %d over %v; want epoch 2 over 2 members", next.Epoch, rec.Epoch, rec.Members)
	}
}
