package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// waitUntil polls cond every few milliseconds until it holds or the
// timeout expires.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterBootstrapPublishesMembership pins the bootstrap half of
// store-backed membership: a fresh cluster persists its epoch-1 record,
// and every later change replaces it in lockstep with the in-memory epoch.
func TestClusterBootstrapPublishesMembership(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()

	rec, _, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatalf("no record after bootstrap: %v", err)
	}
	if rec.Epoch != 1 || !sameMembers(rec.Members, tc.c.Membership().Members()) {
		t.Fatalf("bootstrap record: epoch %d members %v", rec.Epoch, rec.Members)
	}
	// PublishTargets stamped the live URLs into the boot record, so a
	// router can be built from the untouched store alone — no membership
	// change needed first.
	for _, id := range rec.Members {
		if rec.Targets[id] == "" {
			t.Fatalf("boot record has no target URL for %s: %v", id, rec.Targets)
		}
	}
	if _, err := NewRouterFromStore(ctx, store, nil); err != nil {
		t.Fatalf("router from a freshly bootstrapped store: %v", err)
	}

	tc.addShard(t, ctx)
	rec, _, err = membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != tc.c.Epoch() || !sameMembers(rec.Members, tc.c.Membership().Members()) {
		t.Fatalf("record after grow: epoch %d members %v, cluster at %d %v",
			rec.Epoch, rec.Members, tc.c.Epoch(), tc.c.Membership().Members())
	}
}

// TestClusterRestartAdoptsPersistedMembership is the gateway-restart
// scenario of the issue: a cluster that grew to 3 members is torn down
// (process death) and a NEW cluster is built over the same store with the
// old -shards flag. The restarted process must adopt the persisted epoch
// and member set — not silently reset to a 2-member epoch-1 ring that
// would misroute every group and write under a fenced-out epoch.
func TestClusterRestartAdoptsPersistedMembership(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()

	tc.addShard(t, ctx)
	wantEpoch, wantMembers := tc.c.Epoch(), tc.c.Membership().Members()
	if wantEpoch != 2 || len(wantMembers) != 3 {
		t.Fatalf("pre-restart membership: epoch %d members %v", wantEpoch, wantMembers)
	}
	if err := tc.c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The "restarted" process: same store, stale flag (-shards 2).
	c2, err := New(Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 9, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c2.Shutdown(sctx)
	}()
	if c2.Epoch() != wantEpoch {
		t.Fatalf("restarted cluster at epoch %d, want adopted %d", c2.Epoch(), wantEpoch)
	}
	if got := c2.Membership().Members(); !sameMembers(got, wantMembers) {
		t.Fatalf("restarted members %v, want %v", got, wantMembers)
	}
	if len(c2.Shards()) != len(wantMembers) {
		t.Fatalf("restarted cluster minted %d shards for %d members", len(c2.Shards()), len(wantMembers))
	}
	// Every adopted shard operates (and fences its writes) at the adopted
	// epoch, and new IDs never collide with adopted ones.
	for _, s := range c2.Shards() {
		if s.Epoch() != wantEpoch {
			t.Fatalf("adopted shard %s at epoch %d, want %d", s.ID, s.Epoch(), wantEpoch)
		}
	}
	s3, err := c2.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range wantMembers {
		if s3.ID == id {
			t.Fatalf("post-restart mint reused adopted ID %s", s3.ID)
		}
	}
}

// TestRouterRestartRecoversFromStore kills and rebuilds the ROUTER mid-load:
// the replacement is constructed purely from the persisted record
// (NewRouterFromStore), re-adopts the current epoch, and serves the same
// workload with zero failed operations; its watch loop then follows the
// next epoch bump without anyone calling ApplyMembership on it.
func TestRouterRestartRecoversFromStore(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()

	const groups = 4
	groupName := func(i int) string { return fmt.Sprintf("rtrestart-%d", i) }
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := tc.api.CreateGroup(ctx, g, groupUsers(g, 4)); err != nil {
			t.Fatal(err)
		}
	}

	// Continuous load through the ORIGINAL gateway for the whole test.
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
					errc <- fmt.Errorf("%s add: %w", g, err)
					return
				}
				if err := tc.api.RemoveUser(ctx, g, u); err != nil {
					errc <- fmt.Errorf("%s remove: %w", g, err)
					return
				}
			}
		}()
	}

	// The restarted gateway: a second router built ONLY from the store
	// record plus the locally served shard URLs.
	rt2, err := NewRouterFromStore(ctx, store, tc.targetSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	rt2.RetryInterval = 20 * time.Millisecond
	rt2.RouteTimeout = 20 * time.Second
	if got, want := rt2.Membership().Epoch, tc.c.Epoch(); got != want {
		t.Fatalf("restarted router at epoch %d, want %d", got, want)
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	go rt2.Watch(wctx)
	srv2 := httptest.NewServer(rt2)
	defer srv2.Close()
	api2 := client.NewAdminAPI(nil, srv2.URL)

	// The replacement serves every group mid-load.
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := api2.AddUser(ctx, g, g+"-via-rt2@example.com"); err != nil {
			t.Fatalf("op through restarted router: %v", err)
		}
	}

	// A membership change lands while rt2 only watches the store: the grow
	// goes through the CLUSTER (which publishes the record); rt2 must adopt
	// the new epoch from the record alone. The new shard's URL travels
	// inside the record's target map.
	s := tc.addShard(t, ctx)
	waitUntil(t, 10*time.Second, "router watch to adopt the grown epoch", func() bool {
		return rt2.Membership().Epoch == tc.c.Epoch()
	})
	if !rt2.Membership().Has(s.ID) {
		t.Fatalf("restarted router never learned member %s", s.ID)
	}
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := api2.AddUser(ctx, g, g+"-post-grow@example.com"); err != nil {
			t.Fatalf("op through restarted router after grow: %v", err)
		}
	}

	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err) // zero failed ops across the router restart
		}
	}
}

// TestShardDiscoversMembershipFromStore publishes a drain straight into
// the store — no ApplyMembership call ever reaches the drained shard, as
// if it had been partitioned away when the operator acted. The shard's
// watch loop must discover the epoch bump and run the hand-off itself:
// leases released for the new owners, its epoch caught up, the cluster and
// router following through their own watchers.
func TestShardDiscoversMembershipFromStore(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: time.Hour, Seed: 7, Store: store})
	ctx := context.Background()

	const groups = 6
	groupName := func(i int) string { return fmt.Sprintf("discover-%d", i) }
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := tc.api.CreateGroup(ctx, g, groupUsers(g, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a victim that owns at least one group, so the discovered drain
	// has real hand-off work to do.
	var victim *Shard
	for _, s := range tc.c.Shards() {
		if len(s.OwnedGroups()) > 0 {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Fatal("no shard owns any group")
	}

	// An external writer (second gateway, operator script) publishes the
	// drain record directly.
	rec, ver, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := rec.Membership()
	if err != nil {
		t.Fatal(err)
	}
	next, err := cur.RemoveShard(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := membership.Publish(ctx, store, membership.RecordOf(next, nil), ver); err != nil {
		t.Fatal(err)
	}

	// Self-discovery: the victim drains without any operator call, despite
	// its hour-long leases.
	waitUntil(t, 10*time.Second, "victim to discover the drain", func() bool {
		return victim.Epoch() == next.Epoch && len(victim.OwnedGroups()) == 0
	})
	waitUntil(t, 10*time.Second, "cluster to adopt the discovered epoch", func() bool {
		return tc.c.Epoch() == next.Epoch
	})
	waitUntil(t, 10*time.Second, "router to adopt the discovered epoch", func() bool {
		return tc.router.Membership().Epoch == next.Epoch
	})

	// The moved groups serve from their new owners immediately (no lease
	// TTL wait — the discovered hand-off released them), and every member
	// still derives one group key.
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := tc.api.AddUser(ctx, g, g+"-post-discovery@example.com"); err != nil {
			t.Fatalf("op after discovered drain: %v", err)
		}
		owner := tc.c.Shard(next.Owner(g))
		if owner.ID == victim.ID {
			t.Fatalf("%s still owned by drained shard", g)
		}
		members, err := owner.Admin.Manager().Members(g)
		if err != nil {
			t.Fatalf("new owner of %s has no state: %v", g, err)
		}
		tc.assertOneGroupKey(t, g, members)
	}
}

// TestMembershipDiscoveryVsOperatorRace races an external record publish
// against an operator-driven Admit. Whatever interleaving occurs, the
// epoch sequence must not fork: exactly one writer wins each CAS, the
// loser either surfaces the supersession or rebuilds on the winner's
// epoch, and cluster + store converge on the same final record.
func TestMembershipDiscoveryVsOperatorRace(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()

	s3, err := tc.c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	tc.serveShard(t, s3)

	// External writer: drain shard-2 by record. Operator: admit s3. Fire
	// both concurrently.
	rec, ver, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := rec.Membership()
	if err != nil {
		t.Fatal(err)
	}
	drained, err := cur.RemoveShard("shard-2")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var pubErr, admitErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		pubErr = membership.Publish(ctx, store, membership.RecordOf(drained, nil), ver)
	}()
	go func() {
		defer wg.Done()
		_, admitErr = tc.c.Admit(ctx, s3.ID)
	}()
	wg.Wait()

	// At most one of the two may have lost its CAS; a lost publish is a
	// version conflict (or fence), a lost admit reports supersession.
	if pubErr != nil && !errors.Is(pubErr, storage.ErrVersionConflict) && !errors.Is(pubErr, storage.ErrFenced) {
		t.Fatalf("external publish failed oddly: %v", pubErr)
	}
	if admitErr != nil && pubErr != nil {
		t.Fatalf("both writers lost: publish %v, admit %v", pubErr, admitErr)
	}

	// Convergence: the cluster settles on exactly the store's record.
	waitUntil(t, 10*time.Second, "cluster to converge on the store record", func() bool {
		rec, _, err := membership.Load(ctx, store)
		if err != nil {
			return false
		}
		return tc.c.Epoch() == rec.Epoch && sameMembers(tc.c.Membership().Members(), rec.Members)
	})
	finalRec, _, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if finalRec.Epoch <= rec.Epoch {
		t.Fatalf("epoch did not advance: %d after base %d", finalRec.Epoch, rec.Epoch)
	}
}
