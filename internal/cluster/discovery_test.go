package cluster

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
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
	// direct-routing client can resolve every member from the untouched
	// store alone — no membership change needed first.
	for _, id := range rec.Members {
		if rec.Targets[id] == "" {
			t.Fatalf("boot record has no target URL for %s: %v", id, rec.Targets)
		}
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
	platform := newTestPlatform(t)
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store, Platform: platform})
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
	c2, err := New(Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 9, Store: store, Platform: platform})
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

// newTestPlatform is one simulated SGX platform, the machine a restarted
// cluster comes back on: its sealed blobs open only there.
func newTestPlatform(t *testing.T) *enclave.Platform {
	t.Helper()
	p, err := enclave.NewPlatform("restart-platform", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSealedRestartPreservesMasterKey restarts a sealed-mode cluster on the
// same store and platform: the bootstrap record persisted the sealed master
// key, so the new incarnation restores it on every shard instead of minting
// a second one — the master public key is unchanged, and after an add by
// the restarted cluster every member keyed before the restart still reads
// the group, agreeing with the joiner.
func TestSealedRestartPreservesMasterKey(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	opts := Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store, Platform: newTestPlatform(t)}
	tc := startCluster(t, opts)
	ctx := context.Background()
	users := groupUsers("g", 4)
	if err := tc.api.CreateGroup(ctx, "g", users); err != nil {
		t.Fatal(err)
	}
	scheme := tc.c.Shards()[0].Encl.Scheme()
	pkBefore := scheme.MarshalPublicKey(tc.c.Provisioner().PublicKey())
	var before []*client.Client
	for _, u := range users {
		before = append(before, tc.clientFor(t, u, "g"))
	}
	if err := tc.c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	tc2 := startCluster(t, opts)
	if pk := scheme.MarshalPublicKey(tc2.c.Provisioner().PublicKey()); string(pk) != string(pkBefore) {
		t.Fatal("the restart minted a fresh master key")
	}
	if err := tc2.api.AddUser(ctx, "g", "new@x"); err != nil {
		t.Fatal(err)
	}
	want, err := tc2.clientFor(t, "new@x", "g").GroupKey(ctx)
	if err != nil {
		t.Fatalf("the joiner cannot read: %v", err)
	}
	for i, cl := range before {
		gk, err := cl.GroupKey(ctx)
		if err != nil {
			t.Fatalf("%s, keyed before the restart, cannot read: %v", users[i], err)
		}
		if gk != want {
			t.Fatalf("%s derives a different group key than the joiner", users[i])
		}
	}
}

// TestSealedRestartOnAnotherPlatformFails: the persisted sealed key opens
// only on the platform that sealed it, so a restart on any other fails New
// instead of silently minting a second master secret.
func TestSealedRestartOnAnotherPlatformFails(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	opts := Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store, Platform: newTestPlatform(t)}
	tc := startCluster(t, opts)
	if err := tc.c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	opts.Platform = newTestPlatform(t)
	if c, err := New(opts); !errors.Is(err, enclave.ErrSealedDataCorrupt) {
		if c != nil {
			_ = c.Shutdown(context.Background())
		}
		t.Fatalf("restart on another platform: %v, want ErrSealedDataCorrupt", err)
	}
}

// lateStore shows its reader no membership record on the first two reads —
// New's and the bootstrap publish's own — as if a peer bootstrapped the
// store between that process's read and its publish, so the publish really
// loses its CAS.
type lateStore struct {
	storage.Store
	mu    sync.Mutex
	reads int
}

func (s *lateStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	if dir == membership.Dir {
		s.mu.Lock()
		s.reads++
		hide := s.reads <= 2
		s.mu.Unlock()
		if hide {
			return nil, 0, storage.ErrNotFound
		}
	}
	return s.Store.GetVersioned(ctx, dir, name)
}

// TestBootstrapRaceLoserRestoresTheWinnersKey: a process that loses the
// bootstrap publish to a peer with the same member set restores the
// winner's sealed master key on every shard — it never keeps the second
// master secret its own shards were minted with.
func TestBootstrapRaceLoserRestoresTheWinnersKey(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	opts := Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store, Platform: newTestPlatform(t)}
	winner := startCluster(t, opts)
	opts.Store = &lateStore{Store: store}
	loser := startCluster(t, opts)
	scheme := winner.c.Shards()[0].Encl.Scheme()
	if string(scheme.MarshalPublicKey(loser.c.Provisioner().PublicKey())) != string(scheme.MarshalPublicKey(winner.c.Provisioner().PublicKey())) {
		t.Fatal("the race loser kept its own master key")
	}
	if len(loser.c.Shards()) != 2 {
		t.Fatalf("the race loser runs %d shards, want 2", len(loser.c.Shards()))
	}
	ctx := context.Background()
	if err := winner.api.CreateGroup(ctx, "g", groupUsers("g", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := loser.clientFor(t, groupUsers("g", 3)[1], "g").GroupKey(ctx); err != nil {
		t.Fatalf("a key from the race loser cannot read the winner's group: %v", err)
	}
}

// TestShardDiscoversMembershipFromStore publishes a drain straight into
// the store — no ApplyMembership call ever reaches the drained shard, as
// if it had been partitioned away when the operator acted. The shard's
// watch loop must discover the epoch bump and run the hand-off itself:
// leases released for the new owners, its epoch caught up, the cluster and
// router following through the cluster's one view.
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

// TestRouterRoutesOnTheClusterView: the gateway router reads the cluster's
// own view, so after every kind of membership change — ApplyMembership,
// Admit, RemoveShard, and an epoch discovered in the store — it routes by
// exactly the membership the cluster reports, with no second copy to catch
// up.
func TestRouterRoutesOnTheClusterView(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()
	same := func(step string, want *Membership) {
		t.Helper()
		got := tc.router.Membership()
		if got != tc.c.Membership() || got.Epoch != want.Epoch {
			t.Fatalf("after %s: router at epoch %d, cluster at %d, change made %d", step, got.Epoch, tc.c.Epoch(), want.Epoch)
		}
	}
	same("boot", tc.c.Membership())

	m, err := tc.c.ApplyMembership(ctx, tc.c.Membership().Members())
	if err != nil {
		t.Fatal(err)
	}
	same("ApplyMembership", m)

	s, err := tc.c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	tc.serveShard(t, s)
	if m, err = tc.c.Admit(ctx, s.ID); err != nil {
		t.Fatal(err)
	}
	same("Admit", m)

	if m, err = tc.c.RemoveShard(ctx, s.ID); err != nil {
		t.Fatal(err)
	}
	same("RemoveShard", m)

	rec, ver, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := rec.Membership()
	if err != nil {
		t.Fatal(err)
	}
	next, err := cur.AddShard(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := membership.Publish(ctx, store, membership.RecordOf(next, nil), ver); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "cluster to adopt the discovered epoch", func() bool {
		return tc.c.Epoch() == next.Epoch
	})
	same("discovery", next)
	if err := tc.api.CreateGroup(ctx, "view-g", groupUsers("view-g", 4)); err != nil {
		t.Fatalf("routing after the discovered epoch: %v", err)
	}
}

// TestStaleChangeRefusedWhileViewIsAhead: the view adopts records without
// the transition lock, so it can move between the moment a change computes
// its member list and the moment it checks the store. A change computed at
// epoch N must still be refused once another writer's N+1 is in the store,
// even when the view has already adopted N+1: publishing N+2 from N's member
// list would silently drop the other writer's change.
func TestStaleChangeRefusedWhileViewIsAhead(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()
	c := tc.c

	base := c.Membership()
	stale, err := base.RemoveShard("shard-2") // the operator's change, computed at N
	if err != nil {
		t.Fatal(err)
	}
	// The operator's change is in flight (it holds changeMu) when another
	// writer's N+1 lands in the store and the view adopts it.
	c.changeMu.Lock()
	rec, ver, err := membership.Load(ctx, store)
	if err != nil {
		c.changeMu.Unlock()
		t.Fatal(err)
	}
	cur, err := rec.Membership()
	if err != nil {
		c.changeMu.Unlock()
		t.Fatal(err)
	}
	theirs, err := cur.RemoveShard("shard-1")
	if err != nil {
		c.changeMu.Unlock()
		t.Fatal(err)
	}
	if err := membership.Publish(ctx, store, membership.RecordOf(theirs, tc.targetSnapshot()), ver); err != nil {
		c.changeMu.Unlock()
		t.Fatal(err)
	}
	if err := c.view.Reload(ctx); err != nil {
		c.changeMu.Unlock()
		t.Fatal(err)
	}
	viewEpoch := c.Epoch()
	_, err = c.applyMembership(ctx, base.Epoch, stale.Members())
	c.changeMu.Unlock()

	if viewEpoch != theirs.Epoch {
		t.Fatalf("view at epoch %d after the reload, want %d", viewEpoch, theirs.Epoch)
	}
	if err == nil || !strings.Contains(err.Error(), "superseded") {
		t.Fatalf("change computed at epoch %d with the store at %d: err = %v, want a supersession refusal", base.Epoch, theirs.Epoch, err)
	}
	rec, _, err = membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != theirs.Epoch || !sameMembers(rec.Members, theirs.Members()) {
		t.Fatalf("store holds epoch %d %v, want the other writer's epoch %d %v", rec.Epoch, rec.Members, theirs.Epoch, theirs.Members())
	}
	// The other writer's change still reaches the shards once the lock is
	// free.
	waitUntil(t, 10*time.Second, "shards to apply the other writer's epoch", func() bool {
		return c.Shard("shard-1").Epoch() == theirs.Epoch && c.Shard("shard-0").Epoch() == theirs.Epoch
	})
}

// pollGatedStore is a MemStore whose long-poll on the membership directory
// never wakes: the cluster's watch loop reads the record once and then
// waits, so a later record is only found by an explicit refresh. polling is
// closed when the first such poll starts.
type pollGatedStore struct {
	*storage.MemStore
	once    sync.Once
	polling chan struct{}
}

func (s *pollGatedStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	if dir != membership.Dir {
		return s.MemStore.Poll(ctx, dir, since)
	}
	s.once.Do(func() { close(s.polling) })
	<-ctx.Done()
	return 0, ctx.Err()
}

// TestRouterRefreshDoesNotWaitForChangeMu: a router request whose sweep
// refreshes the shared view and finds a newer record must not run that
// epoch's propagation (shard hand-offs, a reshare) on the request path, nor
// wait behind an operator change holding the transition lock. It re-routes
// on the new record and answers within its RouteTimeout; the shards catch
// up once the lock is free.
func TestRouterRefreshDoesNotWaitForChangeMu(t *testing.T) {
	store := &pollGatedStore{MemStore: storage.NewMemStore(storage.Latency{}), polling: make(chan struct{})}
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()
	c := tc.c
	<-store.polling // the watch loop has read epoch N and waits

	// At epoch N every shard URL leads to a server that answers "not the
	// owner", so the router's first pass fails and its sweep refreshes.
	notOwner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not the owner", http.StatusServiceUnavailable)
	}))
	t.Cleanup(notOwner.Close)
	cur := c.Membership()
	wrong := make(map[string]string)
	for _, id := range cur.Members() {
		wrong[id] = notOwner.URL
	}
	c.view.Adopt(cur, wrong)

	// An operator change holds the transition lock while another writer
	// publishes N+1 with the real URLs.
	c.changeMu.Lock()
	locked := true
	defer func() {
		if locked {
			c.changeMu.Unlock()
		}
	}()
	rec, ver, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	next, err := membership.At(rec.Epoch+1, rec.Members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := membership.Publish(ctx, store, membership.RecordOf(next, tc.targetSnapshot()), ver); err != nil {
		t.Fatal(err)
	}

	tc.router.RouteTimeout = 3 * time.Second
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- tc.api.CreateGroup(ctx, "refresh-g", groupUsers("refresh-g", 4)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("request after the refresh: %v", err)
		}
	case <-time.After(tc.router.RouteTimeout + 2*time.Second):
		t.Fatalf("request still running after %v, its RouteTimeout is %v: it waits for the transition lock", time.Since(start), tc.router.RouteTimeout)
	}
	if got := tc.router.Membership().Epoch; got != next.Epoch {
		t.Fatalf("router at epoch %d after the refresh, want %d", got, next.Epoch)
	}

	c.changeMu.Unlock()
	locked = false
	waitUntil(t, 10*time.Second, "shards to apply the refreshed epoch", func() bool {
		for _, s := range c.Shards() {
			if s.Epoch() != next.Epoch {
				return false
			}
		}
		return true
	})
}
