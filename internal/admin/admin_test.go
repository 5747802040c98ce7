package admin_test

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// sys is a full in-process deployment: enclave, manager, admin, store, log.
type sys struct {
	encl  *enclave.IBBEEnclave
	admin *admin.Admin
	store *storage.MemStore
	log   *core.OpLog
}

func newSys(t *testing.T, capacity int) *sys {
	t.Helper()
	platform, err := enclave.NewPlatform("p", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := enclave.NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ie.EcallSetup(capacity); err != nil {
		t.Fatal(err)
	}
	mgr, err := core.NewManager(ie, capacity, 7)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMemStore(storage.Latency{})
	log, err := core.NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	return &sys{encl: ie, admin: admin.New("admin-1", mgr, store, log), store: store, log: log}
}

func (s *sys) clientFor(t *testing.T, id, group string) *client.Client {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := s.encl.EcallExtractUserKey(id, priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	uk, err := prov.Open(s.encl.Scheme(), s.encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(s.encl.Scheme(), s.admin.Manager().PublicKey(), id, uk, s.store, group)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func users(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%03d@example.com", i)
	}
	return out
}

func TestCreateGroupPublishesRecords(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(5)); err != nil {
		t.Fatal(err)
	}
	names, err := s.store.List(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	sealedSeen, indexSeen := false, false
	for _, n := range names {
		switch {
		case n == "_sealed_gk":
			sealedSeen = true
		case n == "_member_index":
			indexSeen = true
		case !strings.HasPrefix(n, "_"):
			parts = append(parts, n)
		}
	}
	if len(parts) != 3 { // 5 members / capacity 2
		t.Fatalf("objects = %v, want 3 partitions", names)
	}
	if !sealedSeen {
		t.Fatal("sealed group key not published (Algorithm 1 line 7)")
	}
	if !indexSeen {
		t.Fatal("member index not published (O(index) takeover restore)")
	}
}

func TestClientReadsGroupKeyFromCloud(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	members := users(5)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	var ref [kdf.KeySize]byte
	for i, u := range members {
		c := s.clientFor(t, u, "g")
		gk, err := c.GroupKey(ctx)
		if err != nil {
			t.Fatalf("GroupKey(%s): %v", u, err)
		}
		if i == 0 {
			ref = gk
		} else if gk != ref {
			t.Fatalf("member %s sees a different key", u)
		}
	}
}

func TestAddUserVisibleToClient(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.AddUser(ctx, "g", "newbie@example.com"); err != nil {
		t.Fatal(err)
	}
	c := s.clientFor(t, "newbie@example.com", "g")
	old := s.clientFor(t, users(2)[0], "g")
	gk1, err := c.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gk2, err := old.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gk1 != gk2 {
		t.Fatal("joiner and old member disagree")
	}
}

func TestRemoveUserRotatesKeyAndEvicts(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	members := users(4)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	stay := s.clientFor(t, members[0], "g")
	leave := s.clientFor(t, members[3], "g")
	gkBefore, err := stay.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leave.GroupKey(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.RemoveUser(ctx, "g", members[3]); err != nil {
		t.Fatal(err)
	}
	gkAfter, err := stay.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gkAfter == gkBefore {
		t.Fatal("key not rotated after revocation")
	}
	if _, err := leave.Refresh(ctx); !errors.Is(err, client.ErrEvicted) {
		t.Fatalf("revoked client: %v, want ErrEvicted", err)
	}
}

func TestWatchDeliversRotations(t *testing.T) {
	s := newSys(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(4)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	c := s.clientFor(t, members[0], "g")

	var (
		mu   sync.Mutex
		keys [][kdf.KeySize]byte
	)
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- c.Watch(ctx, func(gk [kdf.KeySize]byte) {
			mu.Lock()
			keys = append(keys, gk)
			mu.Unlock()
		})
	}()

	// Wait for the initial key.
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(keys) >= 1 })
	if err := s.admin.RemoveUser(ctx, "g", members[2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(keys) >= 2 })
	if err := s.admin.RekeyGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(keys) >= 3 })

	mu.Lock()
	defer mu.Unlock()
	if keys[0] == keys[1] || keys[1] == keys[2] {
		t.Fatal("watch delivered duplicate keys")
	}
	cancel()
	if err := <-watchErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("watch exit: %v", err)
	}
}

func TestWatchEndsWhenEvicted(t *testing.T) {
	s := newSys(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(2)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	c := s.clientFor(t, members[1], "g")
	watchErr := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		first := true
		watchErr <- c.Watch(ctx, func([kdf.KeySize]byte) {
			if first {
				close(started)
				first = false
			}
		})
	}()
	<-started
	if err := s.admin.RemoveUser(ctx, "g", members[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-watchErr:
		if !errors.Is(err, client.ErrEvicted) {
			t.Fatalf("watch exit: %v, want ErrEvicted", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("watch did not end on eviction")
	}
}

func TestRepartitionKeepsCloudConsistent(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	members := users(6)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.Repartition(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	// The cloud must hold exactly the manager's current partitions (plus
	// the reserved sealed-group-key object).
	names, err := s.store.List(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.admin.Manager().Records("g")
	if err != nil {
		t.Fatal(err)
	}
	var partObjects []string
	for _, n := range names {
		if !strings.HasPrefix(n, "_") {
			partObjects = append(partObjects, n)
		}
	}
	if len(partObjects) != len(recs) {
		t.Fatalf("cloud has %d partition objects, manager has %d partitions", len(partObjects), len(recs))
	}
	for _, n := range partObjects {
		if _, ok := recs[n]; !ok {
			t.Fatalf("stale cloud object %s", n)
		}
	}
	// Clients still work after the re-layout.
	c := s.clientFor(t, members[0], "g")
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestOperationsAreCertified(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.AddUser(ctx, "g", "x@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.RemoveUser(ctx, "g", "x@example.com"); err != nil {
		t.Fatal(err)
	}
	entries := s.log.Entries()
	if len(entries) != 3 {
		t.Fatalf("log entries = %d, want 3", len(entries))
	}
	if err := core.VerifyChain(entries, s.log.PublicKey()); err != nil {
		t.Fatal(err)
	}
	kinds := []core.OpKind{core.OpCreateGroup, core.OpAddUser, core.OpRemoveUser}
	for i, e := range entries {
		if e.Kind != kinds[i] || e.Admin != "admin-1" {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestClientCacheAvoidsRescan(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	members := users(4)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	c := s.clientFor(t, members[0], "g")
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatal(err)
	}
	statsAfterFirst := s.store.Stats()
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	statsAfterSecond := s.store.Stats()
	// The second refresh should fetch exactly two objects — the group header
	// and the partition the client remembers — not look the user up in the
	// directory again.
	if diff := statsAfterSecond.Gets - statsAfterFirst.Gets; diff != 2 {
		t.Fatalf("cached refresh performed %d gets, want 2", diff)
	}
}

// TestEmptyIdentityIsNeverAMember: the empty identity names no user, so a
// creation or an add naming it is refused with core.ErrEmptyID and commits
// nothing.
func TestEmptyIdentityIsNeverAMember(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "h", []string{"a@x", ""}); !errors.Is(err, core.ErrEmptyID) {
		t.Fatalf("create naming the empty identity: %v, want core.ErrEmptyID", err)
	}
	if names, _ := s.store.List(ctx, "h"); s.admin.Manager().HasGroup("h") || len(names) != 0 {
		t.Fatalf("a refused create left its group behind: %v", names)
	}
	if err := s.admin.CreateGroup(ctx, "g", []string{"a@x", "b@x"}); err != nil {
		t.Fatal(err)
	}
	version, _ := s.store.Version(ctx, "g")
	if err := s.admin.AddUser(ctx, "g", ""); !errors.Is(err, core.ErrEmptyID) {
		t.Fatalf("add of the empty identity: %v, want core.ErrEmptyID", err)
	}
	if err := s.admin.AddUsers(ctx, "g", []string{"c@x", ""}); !errors.Is(err, core.ErrEmptyID) {
		t.Fatalf("batch naming the empty identity: %v, want core.ErrEmptyID", err)
	}
	if v, _ := s.store.Version(ctx, "g"); v != version {
		t.Fatalf("refused adds moved the directory from version %d to %d", version, v)
	}
	members, err := s.admin.Manager().Members("g")
	if err != nil || strings.Join(members, ",") != "a@x,b@x" {
		t.Fatalf("members = %q %v, want exactly a@x and b@x", members, err)
	}
}

func TestAdminErrorsPropagate(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	if err := s.admin.AddUser(ctx, "missing", "u"); !errors.Is(err, core.ErrNoSuchGroup) {
		t.Fatalf("AddUser to missing group: %v", err)
	}
	if err := s.admin.CreateGroup(ctx, "g", users(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.CreateGroup(ctx, "g", users(2)); !errors.Is(err, core.ErrGroupExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestEndToEndOverHTTPStore(t *testing.T) {
	// Same flow, but with admin and client talking to a real HTTP server.
	s := newSys(t, 2)
	ts := httptest.NewServer(storage.NewServer(s.store))
	t.Cleanup(ts.Close)
	hs := storage.NewHTTPStore(ts.URL)

	mgr := s.admin.Manager()
	adminHTTP := admin.New("admin-http", mgr, hs, nil)
	ctx := context.Background()
	members := users(3)
	if err := adminHTTP.CreateGroup(ctx, "hg", members); err != nil {
		t.Fatal(err)
	}
	priv, _ := ecdh.P256().GenerateKey(rand.Reader)
	prov, err := s.encl.EcallExtractUserKey(members[1], priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	uk, err := prov.Open(s.encl.Scheme(), s.encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(s.encl.Scheme(), mgr.PublicKey(), members[1], uk, hs, "hg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatalf("HTTP end-to-end: %v", err)
	}
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
