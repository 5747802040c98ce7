package admin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/partition"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// TestKillMidRestoreLeavesGroupLoadable: an admin dying partway through the
// streaming restore (index fetched, sealed key read lost to the cloud) must
// not leave a half-restored group behind — the next restore attempt loads
// it cleanly, and record corruption discovered at hydration time never
// poisons the group's loadability either.
func TestKillMidRestoreLeavesGroupLoadable(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	members := users(11)
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}

	faulty := storage.NewFaultStore(s.store)
	mgr2, err := core.NewManager(s.encl, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	admin2 := New("admin-2", mgr2, faulty, nil)

	// The streaming restore's object reads are the group header and the
	// sealed group key, issued together; List/Version/Poll are exempt from
	// the injector. Failing the 2nd read kills one of them.
	faulty.FailEveryGet(2)
	if err := admin2.RestoreGroup(ctx, "g"); err == nil {
		t.Fatal("restore survived a dead sealed-key read")
	}
	if mgr2.HasGroup("g") {
		t.Fatal("failed restore left a half-loaded group registered")
	}

	// The crash was transient: a clean retry restores the group whole.
	faulty.FailEveryGet(0)
	if err := admin2.RestoreGroup(ctx, "g"); err != nil {
		t.Fatalf("retry after mid-restore kill: %v", err)
	}
	got, err := mgr2.Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(members) {
		t.Fatalf("restored members = %d, want %d", len(got), len(members))
	}

	// Hydration-time faults fail the read, not the group: with the cloud
	// flaky every record Get dies, but once it heals the same group serves
	// records without another restore.
	faulty.SetFailGets(true)
	if _, err := mgr2.Records("g"); err == nil {
		t.Fatal("hydration through a dead cloud succeeded")
	}
	faulty.SetFailGets(false)
	recs, err := mgr2.Records("g")
	if err != nil {
		t.Fatalf("hydration after the cloud healed: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("no records hydrated")
	}
	// The restored admin is still operational end to end.
	if err := admin2.AddUser(ctx, "g", "late@example.com"); err != nil {
		t.Fatalf("AddUser after kill-and-retry restore: %v", err)
	}
}

// TestEvictionRehydrateBitIdentical: pages displaced by the LRU bound and
// hydrated back from the store must carry byte-for-byte the records that
// were evicted — paging must be invisible to the crypto layer.
func TestEvictionRehydrateBitIdentical(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	s.admin.Manager().SetMaxResidentPages(2)
	members := users(25) // 9 pages at capacity 3, cache bound 2
	if err := s.admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}

	marshalAll := func(recs map[string]*core.PartitionRecord) map[string][]byte {
		t.Helper()
		out := make(map[string][]byte, len(recs))
		for id, r := range recs {
			blob, err := r.Marshal(s.admin.Manager().Scheme())
			if err != nil {
				t.Fatal(err)
			}
			out[id] = blob
		}
		return out
	}

	// First full walk hydrates every page through the 2-page cache…
	recsA, err := s.admin.Manager().Records("g")
	if err != nil {
		t.Fatal(err)
	}
	a := marshalAll(recsA)
	stats, err := s.admin.Manager().GroupPageStats("g")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evictions == 0 {
		t.Fatalf("walking %d pages through a %d-page cache evicted nothing", len(recsA), stats.Limit)
	}
	if stats.Limit != 2 {
		t.Fatalf("page limit = %d, want 2", stats.Limit)
	}

	// …and the second walk re-hydrates what the first displaced.
	recsB, err := s.admin.Manager().Records("g")
	if err != nil {
		t.Fatal(err)
	}
	b := marshalAll(recsB)
	if len(a) != len(b) {
		t.Fatalf("record count changed across rehydration: %d vs %d", len(a), len(b))
	}
	for id, blobA := range a {
		if !bytes.Equal(blobA, b[id]) {
			t.Fatalf("partition %s not bit-identical after eviction and rehydration", id)
		}
	}

	// Cross-check against the store's durable copies: the cache never
	// serves bytes the cloud does not hold.
	for id, blobA := range a {
		durable, err := s.store.Get(ctx, "g", id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blobA, durable) {
			t.Fatalf("partition %s diverges from its durable record", id)
		}
	}
}

// countingStore is a MemStore that counts object reads and remembers, per
// object, the directory version of the commit that last wrote it.
type countingStore struct {
	*storage.MemStore
	gets    int
	commits [][]storage.Object
	written map[string]uint64
}

func (c *countingStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	c.gets++
	return c.MemStore.Get(ctx, dir, name)
}

func (c *countingStore) GetMany(ctx context.Context, dir string, names []string) ([][]byte, []error) {
	c.gets += len(names)
	return c.MemStore.GetMany(ctx, dir, names)
}

func (c *countingStore) Commit(ctx context.Context, dir string, objs []storage.Object, ifDirVersion, epoch uint64) (uint64, error) {
	v, err := c.MemStore.Commit(ctx, dir, objs, ifDirVersion, epoch)
	if err == nil && dir == "g" {
		c.commits = append(c.commits, append([]storage.Object(nil), objs...))
		for _, o := range objs {
			c.written[o.Name] = v
		}
	}
	return v, err
}

// TestOpsTouchOnlyWhatChanged is the object ledger of the directory layout on
// a paged group of seven partitions: a removal reads at most one object and
// writes exactly four in one commit (record, bucket, header, sealed key), an
// add writes exactly three, a restore reads exactly two, and every partition
// object an operation did not name keeps its bytes and its version.
func TestOpsTouchOnlyWhatChanged(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	store := &countingStore{MemStore: s.store, written: make(map[string]uint64)}
	adm := newCASAdminOn(t, s, store, "admin-ledger")
	adm.Manager().SetMaxResidentPages(2)
	members := users(20) // six full partitions and one of two
	if err := adm.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}

	partitions := func() map[string][]byte {
		names, err := s.store.List(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, n := range names {
			if n[0] != '_' {
				if out[n], err = s.store.Get(ctx, "g", n); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	// step runs one operation and checks its ledger: at most maxGets reads,
	// one commit of exactly the wanted objects (all writes), the one record
	// among them the only partition object whose bytes or version moved.
	step := func(name string, maxGets int, op func() error, want ...string) {
		t.Helper()
		before, versions := partitions(), make(map[string]uint64)
		for n, v := range store.written {
			versions[n] = v
		}
		store.gets, store.commits = 0, nil
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if store.gets > maxGets {
			t.Errorf("%s read %d objects, want at most %d", name, store.gets, maxGets)
		}
		if len(store.commits) != 1 || len(store.commits[0]) != len(want) {
			t.Fatalf("%s: commits %v, want one of %v", name, store.commits, want)
		}
		var record string
		for i, o := range store.commits[0] {
			kind := o.Name
			if kind[0] == 'p' {
				kind, record = "record", o.Name
			} else if strings.HasPrefix(kind, "_dir_") {
				kind = "bucket"
			}
			if o.Delete || kind != want[i] {
				t.Errorf("%s: object %d of the commit is %s (delete=%v), want a write of the %s", name, i, o.Name, o.Delete, want[i])
			}
		}
		for n, blob := range partitions() {
			same := bytes.Equal(blob, before[n]) && store.written[n] == versions[n]
			if same == (n == record) {
				t.Errorf("%s: partition object %s unchanged = %v (the op republished %s)", name, n, same, record)
			}
		}
	}

	step("RemoveUser", 1, func() error { return adm.RemoveUser(ctx, "g", members[4]) },
		"bucket", "record", partition.HeaderObject, sealedGKObject)
	step("AddUser", 1, func() error { return adm.AddUser(ctx, "g", "joiner@example.com") },
		"bucket", "record", partition.HeaderObject)

	standby := newCASAdminOn(t, s, store, "standby-ledger")
	store.gets = 0
	if err := standby.RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if store.gets != 2 {
		t.Fatalf("restore read %d objects, want the header and the sealed key", store.gets)
	}
	// The standby pays for what its first operations touch, nothing else:
	// a bucket and a record.
	standby.Manager().SetMaxResidentPages(2)
	store.gets, store.commits = 0, nil
	if err := standby.RemoveUser(ctx, "g", members[10]); err != nil {
		t.Fatal(err)
	}
	if store.gets != 2 || len(store.commits) != 1 || len(store.commits[0]) != 4 {
		t.Fatalf("first removal after a restore read %d objects and committed %v", store.gets, store.commits)
	}
	if _, err := s.clientFor(t, "joiner@example.com", "g").GroupKey(ctx); err != nil {
		t.Fatalf("member added before the takeover cannot decrypt after it: %v", err)
	}
}

// TestDirectoryGrowsByDoubling: a group created with one member and grown by
// single adds doubles its directory twice, each time rewriting every bucket
// in the same commit as the add; a second manager restores the result, lists
// it page by page, and every member still derives one key.
func TestDirectoryGrowsByDoubling(t *testing.T) {
	s := newSys(t, 2)
	ctx := context.Background()
	adm := newCASAdmin(t, s, 2, s.store, "admin-grow")
	members := users(11)
	if err := adm.CreateGroup(ctx, "g", members[:1]); err != nil {
		t.Fatal(err)
	}
	buckets := func() int {
		names, err := s.store.List(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, name := range names {
			if strings.HasPrefix(name, "_dir_") {
				n++
			}
		}
		return n
	}
	fanouts := []int{buckets()}
	for _, u := range members[1:] {
		if err := adm.AddUser(ctx, "g", u); err != nil {
			t.Fatal(err)
		}
		if n := buckets(); n != fanouts[len(fanouts)-1] {
			fanouts = append(fanouts, n)
		}
	}
	// Capacity 2: one bucket holds up to 4 names, two up to 8.
	if fmt.Sprint(fanouts) != "[1 2 4]" {
		t.Fatalf("directory fan-out went through %v, want [1 2 4]", fanouts)
	}

	standby := newCASAdmin(t, s, 2, s.store, "standby-grow")
	if err := standby.RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for after := ""; ; {
		page, err := standby.Manager().MembersPage("g", after, 3)
		if err != nil {
			t.Fatal(err)
		}
		listed = append(listed, page...)
		if len(page) < 3 {
			break
		}
		after = page[len(page)-1]
	}
	if fmt.Sprint(listed) != fmt.Sprint(members) {
		t.Fatalf("restored group lists %v, want %v", listed, members)
	}
	if err := standby.AddUser(ctx, "g", members[3]); !errors.Is(err, partition.ErrMemberExists) {
		t.Fatalf("duplicate add after the restore: %v", err)
	}
	gk, err := s.clientFor(t, members[0], "g").GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := s.clientFor(t, members[10], "g").GroupKey(ctx); err != nil || other != gk {
		t.Fatalf("first and last member disagree after two resizes: %v", err)
	}
}
