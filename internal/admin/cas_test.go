package admin_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// newCASPeer builds a second administrator sharing s's enclave and store,
// with the given group restored from the cloud.
func newCASPeer(t *testing.T, s *sys, capacity int, group string) *admin.Admin {
	t.Helper()
	mgr, err := core.NewManager(s.encl, capacity, 42)
	if err != nil {
		t.Fatal(err)
	}
	peer := admin.New("admin-2", mgr, s.store, nil)
	if group != "" {
		if err := peer.RestoreGroup(context.Background(), group); err != nil {
			t.Fatal(err)
		}
	}
	return peer
}

func TestCASStaleAdminRefreshesAndRetries(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	members := users(5)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	peer := newCASPeer(t, s, 3, "g")

	// admin-1 writes; peer's tracked version is now stale.
	if err := s.admin.AddUser(ctx, "g", "from-1@example.com"); err != nil {
		t.Fatal(err)
	}
	// peer's first conditional write conflicts, it refreshes from the cloud
	// (absorbing admin-1's add) and retries transparently.
	if err := peer.AddUser(ctx, "g", "from-2@example.com"); err != nil {
		t.Fatalf("stale peer add: %v", err)
	}
	got, err := peer.Manager().Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(members)+2 {
		t.Fatalf("peer sees %d members, want %d", len(got), len(members)+2)
	}

	// Both admins' users converge on one group key.
	c1 := s.clientFor(t, "from-1@example.com", "g")
	c2 := s.clientFor(t, "from-2@example.com", "g")
	gk1, err := c1.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gk2, err := c2.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gk1 != gk2 {
		t.Fatal("users of the two admins disagree on the group key")
	}
}

func TestCASDuplicateCreateResolvesToOneWinner(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(4)); err != nil {
		t.Fatal(err)
	}
	// A second admin that never heard of g tries to create it: its first
	// conditional write conflicts, the refresh absorbs the winner's group,
	// and the retry aborts with ErrGroupExists instead of clobbering.
	peer := newCASPeer(t, s, 3, "")
	err := peer.CreateGroup(ctx, "g", []string{"intruder@example.com"})
	if !errors.Is(err, core.ErrGroupExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	// The winner's records are intact: a member still decrypts.
	c := s.clientFor(t, users(4)[0], "g")
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatalf("winner's group corrupted: %v", err)
	}
}

func TestCASExhaustedRetriesAbortCleanly(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	members := users(4)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}

	// An admin over a store that loses every CAS race.
	faulty := storage.NewFaultStore(s.store)
	mgr, err := core.NewManager(s.encl, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	adm := admin.New("admin-2", mgr, faulty, nil)
	if err := adm.RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	faulty.FailEveryPutIf(1) // every conditional write conflicts
	err = adm.AddUser(ctx, "g", "new@example.com")
	if !errors.Is(err, storage.ErrVersionConflict) {
		t.Fatalf("exhausted retries: %v", err)
	}
	// The abort dropped the (now untrusted) local cache rather than leaving
	// it divergent from the cloud...
	if _, err := mgr.Members("g"); !errors.Is(err, core.ErrNoSuchGroup) {
		t.Fatalf("aborted group still cached: %v", err)
	}
	// ...and wrote nothing: the cloud still serves the original membership.
	faulty.FailEveryPutIf(0)
	if err := adm.RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	got, err := mgr.Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(members) {
		t.Fatalf("cloud membership = %d, want %d", len(got), len(members))
	}
	// After the fault clears, the same admin operates normally again.
	if err := adm.AddUser(ctx, "g", "new@example.com"); err != nil {
		t.Fatalf("add after recovery: %v", err)
	}
	c := s.clientFor(t, "new@example.com", "g")
	if _, err := c.GroupKey(ctx); err != nil {
		t.Fatalf("member cannot decrypt after recovery: %v", err)
	}
}

func TestCASConcurrentAdminsSameGroupConverge(t *testing.T) {
	s := newSys(t, 4)
	ctx := context.Background()
	members := users(12)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	peer := newCASPeer(t, s, 4, "g")

	// Two admins hammer the same group concurrently: adds and removes on
	// disjoint users. CAS serialises them; nobody's write is lost.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs <- s.admin.AddUsers(ctx, "g", []string{"a1@x", "a2@x", "a3@x"})
		errs <- s.admin.RemoveUser(ctx, "g", members[0])
	}()
	go func() {
		defer wg.Done()
		errs <- peer.AddUsers(ctx, "g", []string{"b1@x", "b2@x", "b3@x"})
		errs <- peer.RemoveUser(ctx, "g", members[1])
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent admin op: %v", err)
		}
	}

	// A fresh verifier restored from the cloud sees all six adds and both
	// removals, and every surviving member decrypts to one group key.
	verifier := newCASPeer(t, s, 4, "g")
	got, err := verifier.Manager().Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(members) + 6 - 2; len(got) != want {
		t.Fatalf("converged membership = %d, want %d", len(got), want)
	}
	var ref *[kdf.KeySize]byte
	for _, u := range got {
		c := s.clientFor(t, u, "g")
		gk, err := c.GroupKey(ctx)
		if err != nil {
			t.Fatalf("survivor %s cannot decrypt: %v", u, err)
		}
		if ref == nil {
			ref = &gk
		} else if *ref != gk {
			t.Fatalf("survivor %s derives a different group key", u)
		}
	}
	// The revoked users are locked out.
	for _, u := range members[:2] {
		c := s.clientFor(t, u, "g")
		if _, err := c.GroupKey(ctx); err == nil {
			t.Fatalf("revoked user %s still decrypts", u)
		}
	}
}

func TestConcurrentOpsSameAdminSameGroupLoseNothing(t *testing.T) {
	// Regression: without the per-group op lock in mutate, two concurrent
	// operations through ONE admin could invert between compute and
	// publish — the earlier snapshot overwriting the later one's records.
	// The admin publishes through the store's native commit, and through
	// the chain of conditional puts a store without one falls back to.
	for _, chain := range []bool{false, true} {
		name := "native"
		if chain {
			name = "chain"
		}
		t.Run(name, func(t *testing.T) {
			s := newSys(t, 4)
			adm := s.admin
			if chain {
				adm = newCASAdmin(t, s, 4, chainOnly{s.store}, "admin-chain")
			}
			ctx := context.Background()
			members := users(4)
			if err := adm.CreateGroup(ctx, "g", members); err != nil {
				t.Fatal(err)
			}
			const joiners = 8
			var wg sync.WaitGroup
			errs := make(chan error, joiners)
			for i := 0; i < joiners; i++ {
				u := fmt.Sprintf("join-%d@x", i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- adm.AddUser(ctx, "g", u)
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatalf("concurrent add: %v", err)
				}
			}
			// The cloud (via a fresh restore) must list every joiner, and
			// each must decrypt.
			verifier := newCASPeer(t, s, 4, "g")
			got, err := verifier.Manager().Members("g")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(members)+joiners {
				t.Fatalf("cloud membership = %d, want %d (a concurrent write was lost)", len(got), len(members)+joiners)
			}
			for i := 0; i < joiners; i++ {
				u := fmt.Sprintf("join-%d@x", i)
				c := s.clientFor(t, u, "g")
				if _, err := c.GroupKey(ctx); err != nil {
					t.Fatalf("joiner %s cannot decrypt: %v", u, err)
				}
			}
		})
	}
}
