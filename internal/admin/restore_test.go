package admin_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/partition"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

func TestRestoreGroupAfterAdminRestart(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	members := users(7)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	if err := s.admin.RemoveUser(ctx, "g", members[2]); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager on the same enclave (the enclave keeps its
	// master secret; across process restarts EcallRestore reloads it).
	mgr2, err := core.NewManager(s.encl, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	admin2 := admin.New("admin-2", mgr2, s.store, nil)
	if err := admin2.RestoreGroup(ctx, "g"); err != nil {
		t.Fatalf("RestoreGroup: %v", err)
	}

	// The restored manager agrees with the original on membership.
	want, err := s.admin.Manager().Members("g")
	if err != nil {
		t.Fatal(err)
	}
	got, err := mgr2.Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored members = %d, want %d", len(got), len(want))
	}

	// The restored admin can continue operating the group: add a user to a
	// new partition (unsealing the restored group key) and remove one.
	if err := admin2.AddUser(ctx, "g", "post-restore@example.com"); err != nil {
		t.Fatalf("AddUser after restore: %v", err)
	}
	if err := admin2.RemoveUser(ctx, "g", members[0]); err != nil {
		t.Fatalf("RemoveUser after restore: %v", err)
	}

	// Clients still converge on one key for the continued group.
	cNew := s.clientFor(t, "post-restore@example.com", "g")
	cOld := s.clientFor(t, members[1], "g")
	gkNew, err := cNew.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gkOld, err := cOld.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gkNew != gkOld {
		t.Fatal("members disagree after restored-admin operations")
	}
}

func TestRestoreGroupRequiresSealedKey(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Delete(ctx, "g", "_sealed_gk"); err != nil {
		t.Fatal(err)
	}
	mgr2, err := core.NewManager(s.encl, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	admin2 := admin.New("admin-2", mgr2, s.store, nil)
	if err := admin2.RestoreGroup(ctx, "g"); err == nil {
		t.Fatal("restore without sealed key succeeded")
	}
}

func TestRestoreGroupRejectsCorruptRecord(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(2)); err != nil {
		t.Fatal(err)
	}
	names, _ := s.store.List(ctx, "g")
	for _, n := range names {
		if !strings.HasPrefix(n, "_") {
			if err := s.store.Put(ctx, "g", n, []byte("garbage")); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	mgr2, err := core.NewManager(s.encl, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	admin2 := admin.New("admin-2", mgr2, s.store, nil)
	// The streaming restore reads only the index and the sealed key, so it
	// succeeds; the corruption surfaces the moment the record hydrates.
	if err := admin2.RestoreGroup(ctx, "g"); err != nil {
		t.Fatalf("streaming restore must not read records eagerly: %v", err)
	}
	if _, err := mgr2.Records("g"); err == nil {
		t.Fatal("corrupt record accepted during hydration")
	}
}

func TestRestoreExistingGroupRejected(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(2)); err != nil {
		t.Fatal(err)
	}
	// Restoring into the same (still-populated) manager must fail.
	if err := s.admin.RestoreGroup(ctx, "g"); !errors.Is(err, core.ErrGroupExists) {
		t.Fatalf("restore over live group: %v", err)
	}
}

// overlapStore fails a Get of the group header or the sealed group key
// unless the other of the two is in flight at the same time: a restore that
// reads them one after the other cannot pass it.
type overlapStore struct {
	storage.Store
	arrived chan struct{}
}

func (s *overlapStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	if name != partition.HeaderObject && name != admin.SealedGKObject {
		return s.Store.Get(ctx, dir, name)
	}
	select {
	case s.arrived <- struct{}{}: // the other read is waiting for this one
	case <-s.arrived: // this read waits for the other
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("overlap store: %s read alone", name)
	}
	return s.Store.Get(ctx, dir, name)
}

// TestRestoreReadsHeaderAndKeyTogether: after the version, the group header
// and the sealed key are read concurrently — one store round trip, not two.
func TestRestoreReadsHeaderAndKeyTogether(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	if err := s.admin.CreateGroup(ctx, "g", users(7)); err != nil {
		t.Fatal(err)
	}
	mgr2, err := core.NewManager(s.encl, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	admin2 := admin.New("admin-2", mgr2, &overlapStore{Store: s.store, arrived: make(chan struct{})}, nil)
	if err := admin2.RestoreGroup(ctx, "g"); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, err := mgr2.Members("g"); err != nil || len(got) != 7 {
		t.Fatalf("restored members: %v (%v)", got, err)
	}
}

// versionHookStore runs hook once, right after the first Version read
// returns — between a restore's version read and its content reads.
type versionHookStore struct {
	storage.Store
	once sync.Once
	hook func()
}

func (s *versionHookStore) Version(ctx context.Context, dir string) (uint64, error) {
	v, err := s.Store.Version(ctx, dir)
	s.once.Do(s.hook)
	return v, err
}

// TestRestoreWithWriterMidRestore: a writer that lands between the restore's
// version read and its content reads leaves the restored admin holding a
// stale version, so its first conditional write conflicts, it restores
// again and retries — and no write is lost.
func TestRestoreWithWriterMidRestore(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	members := users(5)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	mgr2, err := core.NewManager(s.encl, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	hooked := &versionHookStore{Store: s.store, hook: func() {
		if err := s.admin.AddUser(ctx, "g", "mid-restore@example.com"); err != nil {
			t.Errorf("writer during the restore: %v", err)
		}
	}}
	admin2 := admin.New("admin-2", mgr2, hooked, nil)
	if err := admin2.RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	before, _ := s.store.Version(ctx, "g")
	if err := admin2.AddUser(ctx, "g", "after-restore@example.com"); err != nil {
		t.Fatalf("first write after a torn restore: %v", err)
	}
	if after, _ := s.store.Version(ctx, "g"); after <= before {
		t.Fatalf("the add wrote nothing: version %d → %d", before, after)
	}
	got, err := mgr2.Members("g")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string(nil), members...), "mid-restore@example.com", "after-restore@example.com")
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("members after the retried add: %v, want %v", got, want)
	}
	// The cloud agrees: a fresh restore sees both writes.
	mgr3, err := core.NewManager(s.encl, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.New("admin-3", mgr3, s.store, nil).RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if got, _ := mgr3.Members("g"); !slices.Equal(got, want) {
		t.Fatalf("cloud members: %v, want %v", got, want)
	}
}
