package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// fakeClock is a settable time source for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newLeaseStore(clk *fakeClock) *leaseStore {
	return &leaseStore{store: storage.NewMemStore(storage.Latency{}), now: clk.now}
}

func TestLeaseAcquireRenewExpiry(t *testing.T) {
	clk := newFakeClock()
	ls := newLeaseStore(clk)
	ctx := context.Background()
	ttl := time.Second

	l, prev, err := ls.acquire(ctx, "g", "shard-0", ttl, 1, true)
	if err != nil || l.Owner != "shard-0" || l.Epoch != 1 || prev != (Lease{}) {
		t.Fatalf("acquire: %+v (replacing %+v), %v", l, prev, err)
	}
	// A live foreign lease blocks acquisition.
	if _, _, err := ls.acquire(ctx, "g", "shard-1", ttl, 1, false); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("foreign acquire on live lease: %v", err)
	}
	// The owner renews, advancing the epoch.
	clk.advance(ttl / 2)
	l2, err := ls.renew(ctx, "g", "shard-0", ttl, 1)
	if err != nil || l2.Epoch != 2 {
		t.Fatalf("renew: %+v, %v", l2, err)
	}
	// After expiry, a peer takes over...
	clk.advance(2 * ttl)
	l3, prev, err := ls.acquire(ctx, "g", "shard-1", ttl, 1, false)
	if err != nil || l3.Owner != "shard-1" || l3.Epoch != 3 || prev.Owner != "shard-0" || prev.Epoch != l2.Epoch {
		t.Fatalf("takeover: %+v (replacing %+v, want the renewed %+v), %v", l3, prev, l2, err)
	}
	// ...and the stalled previous owner's renewal reports the loss.
	if _, err := ls.renew(ctx, "g", "shard-0", ttl, 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale renew: %v", err)
	}
}

func TestLeaseReleaseFreesImmediately(t *testing.T) {
	clk := newFakeClock()
	ls := newLeaseStore(clk)
	ctx := context.Background()
	if _, _, err := ls.acquire(ctx, "g", "shard-0", time.Hour, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := ls.release(ctx, "g", "shard-0", 1, false); err != nil {
		t.Fatal(err)
	}
	// No clock advance needed: the released lease is expired in place.
	if _, _, err := ls.acquire(ctx, "g", "shard-1", time.Hour, 1, false); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	// Releasing a lease someone else owns is a no-op.
	if err := ls.release(ctx, "g", "shard-0", 1, false); err != nil {
		t.Fatal(err)
	}
	cur, _, err := ls.read(ctx, "g")
	if err != nil || cur.Owner != "shard-1" {
		t.Fatalf("lease after foreign release: %+v, %v", cur, err)
	}
}

func TestLeaseRingEpochFencesStaleShard(t *testing.T) {
	clk := newFakeClock()
	ls := newLeaseStore(clk)
	ctx := context.Background()
	ttl := time.Second

	// shard-0 held the group under membership epoch 1 and handed it off:
	// the release stamps epoch 2 (the membership that moved the group).
	if _, _, err := ls.acquire(ctx, "g", "shard-0", ttl, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := ls.release(ctx, "g", "shard-0", 2, true); err != nil {
		t.Fatal(err)
	}
	// A shard still on epoch 1 must not reclaim the lease, even though it
	// is expired — the membership moved on without it.
	if _, _, err := ls.acquire(ctx, "g", "shard-2", ttl, 1, false); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("stale-epoch acquire: %v, want ErrLeaseHeld", err)
	}
	// The epoch-2 owner takes it immediately.
	l, _, err := ls.acquire(ctx, "g", "shard-1", ttl, 2, true)
	if err != nil || l.RingEpoch != 2 {
		t.Fatalf("new-epoch acquire: %+v, %v", l, err)
	}
	// A stale shard's renewal also reports the loss, and the storage-layer
	// fence backs the read-side guard: its lease WRITE would be rejected
	// outright even if the read raced.
	clk.advance(2 * ttl)
	if _, err := ls.renew(ctx, "g", "shard-1", ttl, 1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale-epoch renew: %v, want ErrLeaseLost", err)
	}
	if err := ls.store.PutFenced(ctx, leaseDir("g"), leaseObject, []byte("{}"), 99, 1); !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("stale fenced write: %v, want ErrFenced", err)
	}
}

func TestLeaseHandOffReservedForRingOwner(t *testing.T) {
	clk := newFakeClock()
	ls := newLeaseStore(clk)
	ctx := context.Background()
	ttl := time.Second

	// shard-0 drains "g" for membership epoch 2 (hand-off release).
	if _, _, err := ls.acquire(ctx, "g", "shard-0", ttl, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := ls.release(ctx, "g", "shard-0", 2, true); err != nil {
		t.Fatal(err)
	}
	// The previous owner's stale request — same epoch, but no longer the
	// ring owner — must not snatch the lease back...
	if _, _, err := ls.acquire(ctx, "g", "shard-0", ttl, 2, false); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("non-owner reclaim inside the grace period: %v, want ErrLeaseHeld", err)
	}
	// ...but the ring owner adopts immediately.
	if _, _, err := ls.acquire(ctx, "g", "shard-1", ttl, 2, true); err != nil {
		t.Fatalf("ring owner adopt: %v", err)
	}

	// If the ring owner DIES before adopting, the reservation lapses one
	// TTL after the hand-off and any member can fail over.
	if err := ls.release(ctx, "g", "shard-1", 2, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ls.acquire(ctx, "g", "shard-2", ttl, 2, false); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("failover before the grace period: %v, want ErrLeaseHeld", err)
	}
	clk.advance(ttl + time.Millisecond)
	if _, _, err := ls.acquire(ctx, "g", "shard-2", ttl, 2, false); err != nil {
		t.Fatalf("failover after the grace period: %v", err)
	}
}

func TestLeaseAcquireRaceSingleWinner(t *testing.T) {
	clk := newFakeClock()
	ls := newLeaseStore(clk)
	ctx := context.Background()
	const racers = 6
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		wins []string
	)
	for i := 0; i < racers; i++ {
		id := ShardID(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := ls.acquire(ctx, "g", id, time.Hour, 1, false); err == nil {
				mu.Lock()
				wins = append(wins, id)
				mu.Unlock()
			} else if !errors.Is(err, ErrLeaseHeld) {
				t.Errorf("%s: %v", id, err)
			}
		}()
	}
	wg.Wait()
	if len(wins) != 1 {
		t.Fatalf("lease winners = %v, want exactly one", wins)
	}
}

// readCountingStore counts the single-object and version reads it serves.
type readCountingStore struct {
	storage.Store
	mu    sync.Mutex
	calls map[string]int
}

func (s *readCountingStore) count(op string) {
	s.mu.Lock()
	s.calls[op]++
	s.mu.Unlock()
}

func (s *readCountingStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	s.count("Get")
	return s.Store.Get(ctx, dir, name)
}

func (s *readCountingStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	s.count("GetVersioned")
	return s.Store.GetVersioned(ctx, dir, name)
}

func (s *readCountingStore) Version(ctx context.Context, dir string) (uint64, error) {
	s.count("Version")
	return s.Store.Version(ctx, dir)
}

// take returns the calls counted since the last take.
func (s *readCountingStore) take() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = map[string]int{}
	return calls
}

// TestRecordAndLeaseReadsAreOneStoreCall: reading the membership record or a
// group lease — present or not — costs one store round trip that returns
// the object with its directory version, and never a separate Version.
func TestRecordAndLeaseReadsAreOneStoreCall(t *testing.T) {
	ctx := context.Background()
	store := &readCountingStore{Store: storage.NewMemStore(storage.Latency{}), calls: map[string]int{}}
	one := func(what string) {
		t.Helper()
		if calls := store.take(); len(calls) != 1 || calls["GetVersioned"] != 1 {
			t.Fatalf("%s: store calls %v, want one GetVersioned", what, calls)
		}
	}

	if _, ver, err := membership.Load(ctx, store); !errors.Is(err, membership.ErrNoRecord) || ver != 0 {
		t.Fatalf("load before any publish: version %d, %v", ver, err)
	}
	one("missing record")
	if err := membership.Publish(ctx, store, &membership.Record{Epoch: 1, Members: []string{"shard-0"}}, 0); err != nil {
		t.Fatal(err)
	}
	store.take()
	rec, ver, err := membership.Load(ctx, store)
	if err != nil || rec.Epoch != 1 || ver == 0 {
		t.Fatalf("load: %+v at version %d, %v", rec, ver, err)
	}
	one("record")

	ls := &leaseStore{store: store, now: newFakeClock().now}
	if _, _, err := ls.acquire(ctx, "g", "shard-0", time.Minute, 1, true); err != nil {
		t.Fatal(err)
	}
	one("acquiring a never-leased group")
	if _, _, err := ls.acquire(ctx, "g", "shard-0", time.Minute, 1, true); err != nil {
		t.Fatal(err)
	}
	one("re-acquiring an owned lease")
}
