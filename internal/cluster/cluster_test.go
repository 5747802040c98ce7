package cluster

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// testCluster is a full in-process deployment: N shards behind real HTTP
// servers, a router gateway in front, and an admin client driving it through
// the gateway (a ClusterClient with no store to route by).
// Shards minted at runtime (addShard) get their own servers, and the router
// routes on the cluster's own view exactly as in cmd/ibbe-cluster.
type testCluster struct {
	c      *Cluster
	router *Router
	url    string // the router's
	api    *client.ClusterClient
	srvs   map[string]*httptest.Server

	mu      sync.Mutex
	targets map[string]string
}

func startCluster(t testing.TB, opts Options) *testCluster {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	tc := &testCluster{
		c:       c,
		srvs:    make(map[string]*httptest.Server),
		targets: make(map[string]string),
	}
	// Published membership records carry the live shard URLs (exactly as
	// cmd/ibbe-cluster wires it), so store-watching routers can resolve
	// members they never served.
	c.Targets = tc.targetSnapshot
	for _, s := range c.Shards() {
		tc.serveShard(t, s)
	}
	if err := c.PublishTargets(context.Background()); err != nil {
		t.Fatalf("publishing boot targets: %v", err)
	}
	rt, err := c.NewRouter()
	if err != nil {
		t.Fatal(err)
	}
	rt.RetryInterval = 20 * time.Millisecond
	rt.RouteTimeout = 20 * time.Second
	// Mirror cmd/ibbe-cluster: a cluster built with an obs registry gets an
	// instrumented router too (nil-safe when the options carry none).
	rt.Instrument(opts.Registry, opts.Tracer)
	rtSrv := httptest.NewServer(rt)
	t.Cleanup(rtSrv.Close)
	tc.router, tc.url = rt, rtSrv.URL
	if tc.api, err = client.NewClusterClient(context.Background(), nil, rtSrv.URL); err != nil {
		t.Fatal(err)
	}
	return tc
}

// serveShard puts one shard behind a real HTTP server and records its URL.
func (tc *testCluster) serveShard(t testing.TB, s *Shard) {
	t.Helper()
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	tc.mu.Lock()
	tc.srvs[s.ID] = srv
	tc.targets[s.ID] = srv.URL
	tc.mu.Unlock()
}

func (tc *testCluster) targetSnapshot() map[string]string {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	out := make(map[string]string, len(tc.targets))
	for id, u := range tc.targets {
		out[id] = u
	}
	return out
}

// addShard mints a shard, serves it and admits it to the membership.
func (tc *testCluster) addShard(t *testing.T, ctx context.Context) *Shard {
	t.Helper()
	s, err := tc.c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	tc.serveShard(t, s)
	if _, err := tc.c.Admit(ctx, s.ID); err != nil {
		t.Fatal(err)
	}
	return s
}

// clientFor provisions a user key from shard 0's enclave — records written
// by ANY shard must decrypt with it, which is exactly the shared-master-
// secret property the cluster depends on.
func (tc *testCluster) clientFor(t *testing.T, id, group string) *client.Client {
	t.Helper()
	encl := tc.c.Shards()[0].Encl
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := encl.EcallExtractUserKey(id, priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	uk, err := prov.Open(encl.Scheme(), encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(encl.Scheme(), tc.c.Shards()[0].Admin.Manager().PublicKey(), id, uk, tc.c.Store, group)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// assertOneGroupKey checks that every listed user derives the same group
// key and returns it.
func (tc *testCluster) assertOneGroupKey(t *testing.T, group string, members []string) [kdf.KeySize]byte {
	t.Helper()
	ctx := context.Background()
	var ref *[kdf.KeySize]byte
	for _, u := range members {
		gk, err := tc.clientFor(t, u, group).GroupKey(ctx)
		if err != nil {
			t.Fatalf("member %s of %s cannot decrypt: %v", u, group, err)
		}
		if ref == nil {
			ref = &gk
		} else if *ref != gk {
			t.Fatalf("member %s of %s derives a different group key", u, group)
		}
	}
	if ref == nil {
		t.Fatalf("group %s has no members to verify", group)
	}
	return *ref
}

func groupUsers(group string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-u%03d@example.com", group, i)
	}
	return out
}

func TestClusterDisjointGroupsConcurrentAdmins(t *testing.T) {
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
	ctx := context.Background()

	const groups = 6
	var wg sync.WaitGroup
	errc := make(chan error, groups)
	for i := 0; i < groups; i++ {
		g := fmt.Sprintf("team-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			users := groupUsers(g, 6)
			if err := tc.api.CreateGroup(ctx, g, users[:4]); err != nil {
				errc <- fmt.Errorf("%s create: %w", g, err)
				return
			}
			if err := tc.api.AddUsers(ctx, g, users[4:]); err != nil {
				errc <- fmt.Errorf("%s add: %w", g, err)
				return
			}
			if err := tc.api.RemoveUsers(ctx, g, users[:2]); err != nil {
				errc <- fmt.Errorf("%s remove: %w", g, err)
				return
			}
			if err := tc.api.RekeyGroup(ctx, g); err != nil {
				errc <- fmt.Errorf("%s rekey: %w", g, err)
				return
			}
			errc <- nil
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	// With no store to route by, the admin client sent every op through the
	// router.
	if st := tc.api.Stats(); st.Proxied != 4*groups || st.Direct != 0 {
		t.Fatalf("routes = %+v, want all %d ops proxied", st, 4*groups)
	}

	// Every group converged: survivors share one key, revoked users are out.
	owned := 0
	spread := map[string]int{}
	for i := 0; i < groups; i++ {
		g := fmt.Sprintf("team-%d", i)
		users := groupUsers(g, 6)
		tc.assertOneGroupKey(t, g, users[2:])
		if _, err := tc.clientFor(t, users[0], g).GroupKey(ctx); err == nil {
			t.Fatalf("revoked user still decrypts %s", g)
		}
	}
	// Leases match the ring: each group is owned by exactly the shard the
	// ring names, and more than one shard carries load.
	for _, s := range tc.c.Shards() {
		got := s.OwnedGroups()
		owned += len(got)
		for _, g := range got {
			spread[s.ID]++
			if tc.c.Ring().Owner(g) != s.ID {
				t.Fatalf("%s owns %s but the ring says %s", s.ID, g, tc.c.Ring().Owner(g))
			}
		}
	}
	if owned != groups {
		t.Fatalf("leased groups = %d, want %d", owned, groups)
	}
	if len(spread) < 2 {
		t.Fatalf("all groups landed on one shard: %v", spread)
	}
}

func TestClusterSameGroupRaceAcrossShards(t *testing.T) {
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
	ctx := context.Background()
	members := groupUsers("raced", 12)
	if err := tc.api.CreateGroup(ctx, "raced", members); err != nil {
		t.Fatal(err)
	}

	// Two DIFFERENT shards operate the same group's directory concurrently,
	// directly through their CAS admins — modelling the window where a lease
	// handover leaves both believing they own the group. The CAS layer must
	// serialise them across enclave boundaries (sealed group keys written by
	// one shard unseal in the other's enclave).
	owner := tc.c.Shard(tc.c.Ring().Owner("raced"))
	var other *Shard
	for _, s := range tc.c.Shards() {
		if s.ID != owner.ID {
			other = s
			break
		}
	}
	if err := other.Admin.RestoreGroup(ctx, "raced"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errc <- owner.Admin.AddUsers(ctx, "raced", []string{"o1@x", "o2@x"})
		errc <- owner.Admin.RemoveUser(ctx, "raced", members[0])
	}()
	go func() {
		defer wg.Done()
		errc <- other.Admin.AddUsers(ctx, "raced", []string{"p1@x", "p2@x"})
		errc <- other.Admin.RemoveUser(ctx, "raced", members[1])
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("racing admin op: %v", err)
		}
	}

	// A fresh verifier restored from the cloud is the ground truth: all
	// writes survived, every surviving member decrypts one group key, and
	// no partition record was corrupted by the race.
	verifier := tc.c.Shards()[2].Admin
	verifier.DropGroup("raced")
	if err := verifier.RestoreGroup(ctx, "raced"); err != nil {
		t.Fatal(err)
	}
	got, err := verifier.Manager().Members("raced")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(members) + 4 - 2; len(got) != want {
		t.Fatalf("converged membership = %d, want %d", len(got), want)
	}
	tc.assertOneGroupKey(t, "raced", got)
	for _, u := range members[:2] {
		if _, err := tc.clientFor(t, u, "raced").GroupKey(ctx); err == nil {
			t.Fatalf("revoked user %s still decrypts", u)
		}
	}
}

func TestClusterFailoverKillShardMidBatch(t *testing.T) {
	mem := storage.NewMemStore(storage.Latency{})
	fault := storage.NewFaultStore(mem)
	tc := startCluster(t, Options{
		Shards:   3,
		Capacity: 4,
		LeaseTTL: 500 * time.Millisecond,
		Seed:     7,
		Store:    fault,
	})
	ctx := context.Background()

	members := groupUsers("ops", 12)
	if err := tc.api.CreateGroup(ctx, "ops", members); err != nil {
		t.Fatal(err)
	}
	ownerID := tc.c.Ring().Owner("ops")
	owner := tc.c.Shard(ownerID)

	// The owner dies mid-batch: a removal batch starts re-keying and the
	// store starts failing partway through, leaving a partial apply in the
	// cloud (some partitions re-keyed under the batch's fresh group key,
	// others not). Then the process is killed outright.
	fault.FailEveryPut(3)
	err := tc.api.RemoveUsers(ctx, "ops", members[:4])
	fault.FailEveryPut(0)
	if err == nil {
		t.Fatal("mid-batch fault did not surface")
	}
	owner.Kill()

	// The next operation routes through the gateway, which chases the
	// failover: a peer waits out the dead owner's lease, reclaims the
	// group, heals the partial apply by rotating the group key, and serves.
	if err := tc.api.AddUser(ctx, "ops", "post-failover@example.com"); err != nil {
		t.Fatalf("op after failover: %v", err)
	}
	if err := tc.api.RemoveUser(ctx, "ops", members[4]); err != nil {
		t.Fatalf("remove after failover: %v", err)
	}

	// A peer (not the dead shard) now owns the group.
	var newOwner *Shard
	for _, s := range tc.c.Shards() {
		if s.ID == ownerID {
			continue
		}
		for _, g := range s.OwnedGroups() {
			if g == "ops" {
				newOwner = s
			}
		}
	}
	if newOwner == nil {
		t.Fatal("no surviving shard reclaimed the group")
	}

	// Convergence: the surviving membership (per the new owner, which
	// restored it from the cloud) shares exactly one group key; the users
	// the interrupted batch did manage to remove — and the post-failover
	// removal — are locked out.
	got, err := newOwner.Admin.Manager().Members("ops")
	if err != nil {
		t.Fatal(err)
	}
	tc.assertOneGroupKey(t, "ops", got)
	isMember := make(map[string]bool, len(got))
	for _, u := range got {
		isMember[u] = true
	}
	if !isMember["post-failover@example.com"] {
		t.Fatal("post-failover add lost")
	}
	if isMember[members[4]] {
		t.Fatal("post-failover removal lost")
	}
	for _, u := range members[:4] {
		if isMember[u] {
			continue // the interrupted batch never got to this user — fine
		}
		if _, err := tc.clientFor(t, u, "ops").GroupKey(ctx); err == nil {
			t.Fatalf("user %s was removed but still decrypts", u)
		}
	}
}

func TestClusterProvisionThroughRouter(t *testing.T) {
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
	ctx := context.Background()
	members := groupUsers("prov", 3)
	if err := tc.api.CreateGroup(ctx, "prov", members); err != nil {
		t.Fatal(err)
	}
	// The full user-side handshake against the gateway: whatever shard the
	// router picks, the provisioned key must decrypt the group records.
	scheme, pk, uk, err := admin.ProvisionOverHTTP(nil, tc.url, members[0], nil)
	if err != nil {
		t.Fatalf("provision via router: %v", err)
	}
	cl, err := client.New(scheme, pk, members[0], uk, tc.c.Store, "prov")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GroupKey(ctx); err != nil {
		t.Fatalf("router-provisioned user cannot decrypt: %v", err)
	}
}

// TestClusterAdvertisesItsParams: /info names the parameters the shards
// run, so a client builds the matching scheme, and a ParamsName that names
// other parameters is refused rather than advertised.
func TestClusterAdvertisesItsParams(t *testing.T) {
	c, err := New(Options{Shards: 1, Capacity: 2, Params: pairing.TypeA256()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	srv := httptest.NewServer(c.Shards()[0])
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info admin.SystemInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Params != "type-a-256" {
		t.Fatalf("advertised %q for type-a-256 parameters", info.Params)
	}
	if _, err := New(Options{Shards: 1, Capacity: 2, Params: pairing.TypeA256(), ParamsName: "type-a-160"}); err == nil {
		t.Fatal("a ParamsName disagreeing with the parameters was accepted")
	}
}

func TestClusterGracefulShutdownHandsOver(t *testing.T) {
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: time.Hour, Seed: 7})
	ctx := context.Background()
	if err := tc.api.CreateGroup(ctx, "handover", groupUsers("handover", 4)); err != nil {
		t.Fatal(err)
	}
	owner := tc.c.Shard(tc.c.Ring().Owner("handover"))
	// Despite the hour-long TTL, a graceful shutdown releases the lease, so
	// the peer takes over without waiting.
	if err := owner.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tc.api.AddUser(ctx, "handover", "late@example.com"); err != nil {
		t.Fatalf("op after graceful shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("handover took %v — lease was not released", elapsed)
	}
	if _, err := tc.clientFor(t, "late@example.com", "handover").GroupKey(ctx); err != nil {
		t.Fatalf("member added after handover cannot decrypt: %v", err)
	}
}

// callCountingStore is a MemStore that counts versioned reads (a lease read
// is one), batched group reads (GetMany) and listings, per directory.
type callCountingStore struct {
	*storage.MemStore
	mu       sync.Mutex
	gets     map[string]int
	getManys map[string]int
	lists    map[string]int
}

func (c *callCountingStore) List(ctx context.Context, dir string) ([]string, error) {
	c.mu.Lock()
	c.lists[dir]++
	c.mu.Unlock()
	return c.MemStore.List(ctx, dir)
}

func (c *callCountingStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	c.mu.Lock()
	c.gets[dir]++
	c.mu.Unlock()
	return c.MemStore.GetVersioned(ctx, dir, name)
}

func (c *callCountingStore) GetMany(ctx context.Context, dir string, names []string) ([][]byte, []error) {
	c.mu.Lock()
	c.getManys[dir]++
	c.mu.Unlock()
	return c.MemStore.GetMany(ctx, dir, names)
}

// TestFreshCreateStoreRoundTrips counts the reads of a create through one
// shard for a group nobody has leased: the lease acquisition reads the lease
// once (the replaced lease comes from the snapshot the CAS is conditioned
// on), and the group's directory, at version 0, is neither read by the
// restore nor listed by the create. A dropped cache still heals, through one
// restore read.
func TestFreshCreateStoreRoundTrips(t *testing.T) {
	store := &callCountingStore{MemStore: storage.NewMemStore(storage.Latency{}), gets: map[string]int{}, getManys: map[string]int{}, lists: map[string]int{}}
	c, err := New(Options{Shards: 1, Capacity: 4, LeaseTTL: time.Hour, Seed: 33, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Shutdown(context.Background()) })
	shard := c.Shards()[0]
	serve := func(path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		shard.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != 204 {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
		}
	}
	serve("/admin/create", `{"group":"g","members":["alice@x","bob@x"]}`)
	store.mu.Lock()
	leaseGets, restores, lists := store.gets[leaseDir("g")], store.getManys["g"], store.lists["g"]
	store.mu.Unlock()
	if leaseGets != 1 || restores != 0 || lists != 0 {
		t.Fatalf("fresh create: %d lease Gets, %d restore GetManys, %d group Lists; want 1, 0 and 0", leaseGets, restores, lists)
	}
	shard.Admin.DropGroup("g")
	serve("/admin/add-batch", `{"group":"g","users":["carol@x"]}`)
	store.mu.Lock()
	restores = store.getManys["g"]
	store.mu.Unlock()
	if restores != 1 || !shard.Admin.Manager().HasGroup("g") {
		t.Fatalf("dropped cache: %d restore GetManys in all (want 1), group resident %v", restores, shard.Admin.Manager().HasGroup("g"))
	}
}
