package client

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/partition"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// rig wires a manager and a store without the admin frontend, so the tests
// can publish records selectively and inject faults.
type rig struct {
	encl  *enclave.IBBEEnclave
	mgr   *core.Manager
	store *storage.MemStore
}

func newRig(t *testing.T, capacity int) *rig {
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
	mgr, err := core.NewManager(ie, capacity, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{encl: ie, mgr: mgr, store: storage.NewMemStore(storage.Latency{})}
}

// publish pushes an update to the store as one commit, like an admin.
func (r *rig) publish(t *testing.T, up *core.Update) {
	t.Helper()
	ctx := context.Background()
	var objs []storage.Object
	for id, rec := range up.Put {
		blob, err := rec.Marshal(r.mgr.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, storage.Object{Name: id, Data: blob})
	}
	for name, blob := range up.Buckets {
		objs = append(objs, storage.Object{Name: name, Data: blob})
	}
	for _, id := range up.Delete {
		objs = append(objs, storage.Object{Name: id, Delete: true})
	}
	objs = append(objs, storage.Object{Name: partition.HeaderObject, Data: up.Header})
	v, err := r.store.Version(ctx, up.Group)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.store.Commit(ctx, up.Group, objs, v, 0); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) clientFor(t *testing.T, id, group string) *Client {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := r.encl.EcallExtractUserKey(id, priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	uk, err := prov.Open(r.encl.Scheme(), r.encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(r.encl.Scheme(), r.mgr.PublicKey(), id, uk, r.store, group)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func users(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%02d@example.com", i)
	}
	return out
}

func TestNewRejectsNilMaterial(t *testing.T) {
	r := newRig(t, 2)
	if _, err := New(nil, nil, "x", nil, r.store, "g"); err == nil {
		t.Fatal("nil material accepted")
	}
}

func TestGroupKeyCachesAfterFirstDerivation(t *testing.T) {
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Decrypts() != 1 {
		t.Fatalf("decrypts = %d", c.Decrypts())
	}
	// Second GroupKey hits the cache: no new derivation, no store reads.
	gets := r.store.Stats().Gets
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Decrypts() != 1 {
		t.Fatal("cached GroupKey re-derived")
	}
	if r.store.Stats().Gets != gets {
		t.Fatal("cached GroupKey touched the store")
	}
}

func TestRefreshSurvivesPartitionMove(t *testing.T) {
	// After a re-partition the user's cached partition object disappears;
	// Refresh must rescan and find the new one.
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(6)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[5], "g")
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	up2, err := r.mgr.Repartition("g")
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatalf("refresh after repartition: %v", err)
	}
}

func TestRefreshEvictedAfterRecordsGone(t *testing.T) {
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	up2, err := r.mgr.RemoveUser("g", members[0])
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	if _, err := c.Refresh(ctx); !errors.Is(err, ErrEvicted) {
		t.Fatalf("got %v, want ErrEvicted", err)
	}
}

func TestRefreshFailsOnCorruptRecord(t *testing.T) {
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	// Overwrite the only record with garbage.
	if err := r.store.Put(ctx, "g", "p000001", []byte("not a record")); err != nil {
		t.Fatal(err)
	}
	c := r.clientFor(t, members[0], "g")
	if _, err := c.Refresh(ctx); err == nil {
		t.Fatal("corrupt record accepted")
	}
}

// A store can serve a partition record, and a header counting it, with more
// members than the reader's key covers. The reader must get an error back —
// the IBBE decrypt would otherwise index past the key's powers and take the
// process down.
func TestRefreshRefusesRecordBeyondKey(t *testing.T) {
	r := newRig(t, 2)
	wide := newRig(t, 8) // another deployment's directory, capacity 8
	ctx := context.Background()
	members := users(8)
	up, err := wide.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	wide.publish(t, up)
	c := r.clientFor(t, members[0], "g") // its key covers m = 2
	c.store = wide.store
	gk, err := c.Refresh(ctx)
	if !errors.Is(err, ibbe.ErrGroupTooLarge) || gk != [kdf.KeySize]byte{} {
		t.Fatalf("8-member record for an m = 2 key: key %x, err %v; want ErrGroupTooLarge", gk[:4], err)
	}
}

func TestRefreshSkipsForeignPartitions(t *testing.T) {
	// The client must find its own partition among several.
	r := newRig(t, 2)
	ctx := context.Background()
	members := users(8) // four partitions
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[7], "g")
	gk, err := c.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gk == [kdf.KeySize]byte{} {
		t.Fatal("zero key")
	}
}

func TestWatchSeesRotationAndStops(t *testing.T) {
	r := newRig(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(4)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")

	var (
		mu   sync.Mutex
		keys [][kdf.KeySize]byte
	)
	done := make(chan error, 1)
	go func() {
		done <- c.Watch(ctx, func(gk [kdf.KeySize]byte) {
			mu.Lock()
			keys = append(keys, gk)
			mu.Unlock()
		})
	}()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(keys) >= 1 })

	up2, err := r.mgr.RekeyGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(keys) >= 2 })

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("watch exit: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if keys[0] == keys[1] {
		t.Fatal("rotation delivered identical keys")
	}
}

func TestWatchSuppressesNoOpUpdates(t *testing.T) {
	// An add to another partition changes the directory version but not
	// this user's key; Watch must not re-deliver the same key.
	r := newRig(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(2)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")

	var (
		mu    sync.Mutex
		calls int
	)
	go func() {
		_ = c.Watch(ctx, func([kdf.KeySize]byte) {
			mu.Lock()
			calls++
			mu.Unlock()
		})
	}()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return calls >= 1 })

	// Add a user (key unchanged) and let the watcher churn.
	up2, err := r.mgr.AddUser("g", "latecomer@example.com")
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up2)
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("no-op update delivered %d callbacks, want 1", calls)
	}
}

func TestAccessorsAndIdentity(t *testing.T) {
	r := newRig(t, 2)
	members := users(1)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	c := r.clientFor(t, members[0], "g")
	if c.ID() != members[0] || c.Group() != "g" {
		t.Fatalf("accessors: %s %s", c.ID(), c.Group())
	}
}

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

// staleHeaderStore serves a saved group header in place of the current one
// for the next `serve` header reads — a reader whose header GET was answered
// before a commit that its bucket and record GETs come after.
type staleHeaderStore struct {
	*storage.MemStore
	stale []byte
	serve int
}

func (s *staleHeaderStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	data, v, err := s.MemStore.GetVersioned(ctx, dir, name)
	if err == nil && name == partition.HeaderObject && s.serve > 0 {
		s.serve--
		data, v = s.stale, v-1
	}
	return data, v, err
}

// heldHeaderStore serves its stale header at the directory's current
// version, as a store would whose writer died mid-chain.
type heldHeaderStore struct{ *staleHeaderStore }

func (s *heldHeaderStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	data, v, err := s.MemStore.GetVersioned(ctx, dir, name)
	if err == nil && name == partition.HeaderObject {
		data = s.stale
	}
	return data, v, err
}

// TestTornReadFailsClosedAndRereads pairs a header of one directory version
// with buckets and records of the next, for every kind of change that can
// sit between them. The read must never return the old key or a wrong one:
// it re-reads and returns the current key, or — when the header never
// catches up — fails.
func TestTornReadFailsClosedAndRereads(t *testing.T) {
	r := newRig(t, 3)
	ctx := context.Background()
	members := users(6) // two full partitions
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	torn := &staleHeaderStore{MemStore: r.store}
	reader := r.clientFor(t, members[0], "g")
	reader.store = torn
	old, err := reader.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for _, change := range []struct {
		name string
		op   func() (*core.Update, error)
	}{
		{"a co-member's removal (roster shrinks, broadcast key rotates)", func() (*core.Update, error) { return r.mgr.RemoveUser("g", members[1]) }},
		{"an add to the reader's partition (roster grows)", func() (*core.Update, error) { return r.mgr.AddUser("g", "joiner@example.com") }},
		{"a group re-key (same rosters, every broadcast key rotates)", func() (*core.Update, error) { return r.mgr.RekeyGroup("g") }},
		{"a re-partition (every partition object replaced)", func() (*core.Update, error) { return r.mgr.Repartition("g") }},
	} {
		var err error
		if torn.stale, err = r.store.Get(ctx, "g", partition.HeaderObject); err != nil {
			t.Fatal(err)
		}
		up, err := change.op()
		if err != nil {
			t.Fatalf("%s: %v", change.name, err)
		}
		r.publish(t, up)
		want, err := r.clientFor(t, members[2], "g").Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		torn.serve = 1
		got, err := reader.Refresh(ctx)
		if err != nil {
			t.Fatalf("read across %s: %v", change.name, err)
		}
		if torn.serve != 0 {
			t.Fatalf("%s: the stale header was never read", change.name)
		}
		if got != want {
			t.Fatalf("read across %s returned a key that is not the current one (the old one: %v)", change.name, got == old)
		}
		old = got
	}

	// A header that never catches up while nothing else moves either: the
	// read waits for the directory's next version, and fails when the wait
	// ends — it does not settle for what the stale header wraps.
	if torn.stale, err = r.store.Get(ctx, "g", partition.HeaderObject); err != nil {
		t.Fatal(err)
	}
	up, err = r.mgr.RemoveUser("g", members[2])
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	held := &heldHeaderStore{staleHeaderStore: torn}
	reader.store = held
	waitCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if gk, err := reader.Refresh(waitCtx); !errors.Is(err, context.DeadlineExceeded) || gk != [kdf.KeySize]byte{} {
		t.Fatalf("read under a stuck header, caller gives up: key %x, err %v", gk[:4], err)
	}
	if testing.Short() {
		return // the read's own patience is two seconds
	}
	if gk, err := reader.Refresh(ctx); !errors.Is(err, errTorn) || gk != [kdf.KeySize]byte{} {
		t.Fatalf("read under a header stuck one version behind: key %x, err %v", gk[:4], err)
	}
}

// TestReadWaitsOutAChainedPublish: on a store without an atomic commit an
// update lands object by object, the header at the end. A reader of the
// partition being changed that arrives mid-chain waits for the directory to
// move on — it neither fails nor answers — and returns the new key once the
// header is in.
func TestReadWaitsOutAChainedPublish(t *testing.T) {
	r := newRig(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	members := users(6)
	up, err := r.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t, up)
	reader := r.clientFor(t, members[0], "g")
	old, err := reader.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}

	up, err = r.mgr.RemoveUser("g", members[1]) // the reader's partition shrinks
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range up.Buckets {
		if err := r.store.Put(ctx, "g", name, blob); err != nil {
			t.Fatal(err)
		}
	}
	for id, rec := range up.Put {
		blob, err := rec.Marshal(r.mgr.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.store.Put(ctx, "g", id, blob); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		gk  [kdf.KeySize]byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		gk, err := reader.Refresh(ctx)
		done <- result{gk, err}
	}()
	select {
	case res := <-done:
		t.Fatalf("read returned mid-chain: key %x (old: %v), err %v", res.gk[:4], res.gk == old, res.err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := r.store.Put(ctx, "g", partition.HeaderObject, up.Header); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("read across the chain: %v", res.err)
	}
	want, err := r.clientFor(t, members[2], "g").Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.gk != want || res.gk == old {
		t.Fatal("read across the chain did not return the new key")
	}
}
