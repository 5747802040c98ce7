package admin_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/core"
)

func TestBatchedMembershipEndToEnd(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	base := users(6)
	if err := s.admin.CreateGroup(ctx, "g", base); err != nil {
		t.Fatal(err)
	}

	joiners := []string{"j1@x", "j2@x", "j3@x"}
	if err := s.admin.AddUsers(ctx, "g", joiners); err != nil {
		t.Fatal(err)
	}
	// Every joiner reads the group key straight from the cloud.
	var ref [32]byte
	for i, u := range joiners {
		gk, err := s.clientFor(t, u, "g").GroupKey(ctx)
		if err != nil {
			t.Fatalf("joiner %s: %v", u, err)
		}
		if i == 0 {
			ref = gk
		} else if gk != ref {
			t.Fatalf("joiner %s sees a different key", u)
		}
	}

	if err := s.admin.RemoveUsers(ctx, "g", []string{base[0], joiners[0]}); err != nil {
		t.Fatal(err)
	}
	// Removed users are evicted; survivors converge on a rotated key.
	if _, err := s.clientFor(t, base[0], "g").GroupKey(ctx); err == nil {
		t.Fatal("removed user still derives the group key from the cloud")
	}
	gk2, err := s.clientFor(t, joiners[1], "g").GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gk2 == ref {
		t.Fatal("batch removal did not rotate the group key")
	}

	// The op log certifies each member of both batches individually.
	adds, removes := 0, 0
	for _, e := range s.log.Entries() {
		switch e.Kind {
		case core.OpAddUser:
			adds++
		case core.OpRemoveUser:
			removes++
		}
	}
	if adds != len(joiners) || removes != 2 {
		t.Fatalf("certified adds=%d removes=%d, want %d and 2", adds, removes, len(joiners))
	}
}

// TestConcurrentAdminGroups drives one Admin from many goroutines, each on
// its own group, against the shared cloud store — the admin-layer companion
// to the core concurrency tests for the -race CI job.
func TestConcurrentAdminGroups(t *testing.T) {
	s := newSys(t, 3)
	const groups = 3
	var wg sync.WaitGroup
	errs := make(chan error, groups)
	for gi := 0; gi < groups; gi++ {
		name := fmt.Sprintf("g%d", gi)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			base := make([]string, 5)
			for i := range base {
				base[i] = fmt.Sprintf("%s-u%d@x", name, i)
			}
			if err := s.admin.CreateGroup(ctx, name, base); err != nil {
				errs <- err
				return
			}
			if err := s.admin.AddUsers(ctx, name, []string{name + "-j1@x", name + "-j2@x"}); err != nil {
				errs <- err
				return
			}
			if err := s.admin.RemoveUsers(ctx, name, []string{base[0], name + "-j1@x"}); err != nil {
				errs <- err
				return
			}
			if err := s.admin.RekeyGroup(ctx, name); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each group's survivors read one common key from the cloud.
	for gi := 0; gi < groups; gi++ {
		name := fmt.Sprintf("g%d", gi)
		survivor := fmt.Sprintf("%s-u1@x", name)
		if _, err := s.clientFor(t, survivor, name).GroupKey(context.Background()); err != nil {
			t.Fatalf("%s survivor cannot decrypt: %v", name, err)
		}
	}
}

// TestEmptyBatchesCommitNothing: a batch with no users changes nothing, so
// it must not rewrite the header, bump the directory version (which wakes
// every polling reader) or certify anything.
func TestEmptyBatchesCommitNothing(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(4)); err != nil {
		t.Fatal(err)
	}
	before, err := s.store.Version(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	entries := len(s.log.Entries())
	if err := s.admin.AddUsers(ctx, "g", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.RemoveUsers(ctx, "g", nil); err != nil {
		t.Fatal(err)
	}
	after, err := s.store.Version(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("empty batches moved the directory version from %d to %d", before, after)
	}
	if got := len(s.log.Entries()); got != entries {
		t.Fatalf("empty batches certified %d operations", got-entries)
	}
	// The group is still served: the next real op commits on top.
	if err := s.admin.AddUser(ctx, "g", "j@x"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.store.Version(ctx, "g"); v != before+1 {
		t.Fatalf("add after the empty batches left version %d, want %d", v, before+1)
	}
}
