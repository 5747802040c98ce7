package admin_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/partition"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// chainOnly hides the embedded store's native Commit (and every other
// optional interface), forcing storage.Commit onto the chain of puts.
type chainOnly struct{ storage.Store }

// newCASAdminOn builds an administrator of capacity 3 on s's enclave over
// its own store.
func newCASAdminOn(t *testing.T, s *sys, store storage.Store, name string) *admin.Admin {
	return newCASAdmin(t, s, 3, store, name)
}

func newCASAdmin(t *testing.T, s *sys, capacity int, store storage.Store, name string) *admin.Admin {
	t.Helper()
	mgr, err := core.NewManager(s.encl, capacity, 42)
	if err != nil {
		t.Fatal(err)
	}
	return admin.New(name, mgr, store, nil)
}

// TestCommitPathsAgree drives one seeded op sequence through an admin whose
// store commits natively and through one whose store hides Commit (the
// chain). The ciphertexts are randomised, so byte-identity of the two paths
// is storage's TestCommitChainMatchesNative; here the directories must hold
// the same objects, the same directory buckets, the same header shape and the
// same partition memberships, the native admin must have paid one store round
// trip per update, and a fresh standby must restore and serve either
// directory.
func TestCommitPathsAgree(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	native, chained := storage.NewMemStore(storage.Latency{}), storage.NewMemStore(storage.Latency{})
	sides := []struct {
		name  string
		mem   *storage.MemStore
		store storage.Store
		admin *admin.Admin
	}{
		{name: "native", mem: native, store: native},
		{name: "chain", mem: chained, store: chainOnly{chained}},
	}
	for i := range sides {
		sides[i].admin = newCASAdminOn(t, s, sides[i].store, "admin-"+sides[i].name)
	}

	rng := rand.New(rand.NewSource(14))
	members := users(10)
	next := len(members)
	ops := []func(a *admin.Admin) error{
		func(a *admin.Admin) error { return a.CreateGroup(ctx, "g", users(10)) },
	}
	for i := 0; i < 24; i++ {
		switch k := rng.Intn(5); {
		case k < 2 || len(members) < 4:
			u := fmt.Sprintf("u%03d@example.com", next)
			next++
			members = append(members, u)
			ops = append(ops, func(a *admin.Admin) error { return a.AddUser(ctx, "g", u) })
		case k < 4:
			j := rng.Intn(len(members))
			u := members[j]
			members = append(members[:j], members[j+1:]...)
			ops = append(ops, func(a *admin.Admin) error { return a.RemoveUser(ctx, "g", u) })
		default:
			// A batch removal empties partitions (deletes in the update).
			batch := append([]string(nil), members[:3]...)
			members = members[3:]
			ops = append(ops, func(a *admin.Admin) error { return a.RemoveUsers(ctx, "g", batch) })
		}
	}
	ops = append(ops, func(a *admin.Admin) error { return a.Repartition(ctx, "g") })

	for _, sd := range sides {
		before := sd.mem.Stats().Puts
		for i, op := range ops {
			if err := op(sd.admin); err != nil {
				t.Fatalf("%s: op %d: %v", sd.name, i, err)
			}
		}
		if puts := sd.mem.Stats().Puts - before; sd.name == "native" && puts != int64(len(ops)) {
			t.Errorf("native admin paid %d store writes for %d updates, want one each", puts, len(ops))
		}
	}

	// Same objects, same buckets, same header shape, same partition
	// memberships (wrapped keys and handles are randomised, like ciphertexts).
	type dirState struct {
		names   []string
		buckets string
		header  string
		byPart  map[string][]string
	}
	read := func(mem *storage.MemStore) dirState {
		names, err := mem.List(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		st := dirState{names: names, byPart: make(map[string][]string)}
		for _, n := range names {
			blob, err := mem.Get(ctx, "g", n)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case n == partition.HeaderObject:
				idx, err := partition.UnmarshalIndex(blob)
				if err != nil {
					t.Fatal(err)
				}
				st.header = fmt.Sprintf("capacity %d, fan-out %d, %d members:", idx.Capacity(), idx.Fanout(), idx.Len())
				for _, id := range idx.PageIDs() {
					st.header += fmt.Sprintf(" %s=%d", id, idx.Count(id))
				}
			case n == admin.SealedGKObject:
			case strings.HasPrefix(n, "_"):
				st.buckets += fmt.Sprintf("%s=%x ", n, blob)
			default:
				rec, err := core.UnmarshalRecord(s.encl.Scheme(), blob)
				if err != nil {
					t.Fatal(err)
				}
				st.byPart[n] = rec.Members
			}
		}
		return st
	}
	a, b := read(native), read(chained)
	if fmt.Sprint(a.names) != fmt.Sprint(b.names) {
		t.Fatalf("object sets differ:\n native %v\n chain  %v", a.names, b.names)
	}
	if a.header != b.header || a.buckets != b.buckets {
		t.Fatalf("group header or directory differs between the two paths:\n native %s\n chain  %s", a.header, b.header)
	}
	if fmt.Sprint(a.byPart) != fmt.Sprint(b.byPart) {
		t.Fatalf("partition memberships differ:\n native %v\n chain  %v", a.byPart, b.byPart)
	}

	// A fresh standby restores either directory, lists the model's members
	// and serves the next op on it.
	want := append([]string(nil), members...)
	sort.Strings(want)
	for _, sd := range sides {
		standby := newCASAdminOn(t, s, sd.store, "standby-"+sd.name)
		if err := standby.RestoreGroup(ctx, "g"); err != nil {
			t.Fatalf("%s: standby restore: %v", sd.name, err)
		}
		got, err := standby.Manager().Members("g")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: standby lists %v, want %v", sd.name, got, want)
		}
		if err := standby.AddUser(ctx, "g", "after-takeover@example.com"); err != nil {
			t.Fatalf("%s: op after takeover: %v", sd.name, err)
		}
	}
}

// flakyCommitter is a MemStore whose next Commit fails without writing.
type flakyCommitter struct {
	*storage.MemStore
	mu       sync.Mutex
	failNext bool
}

func (f *flakyCommitter) Commit(ctx context.Context, dir string, objs []storage.Object, ifDirVersion, epoch uint64) (uint64, error) {
	f.mu.Lock()
	fail := f.failNext
	f.failNext = false
	f.mu.Unlock()
	if fail {
		return 0, errors.New("injected commit failure")
	}
	return f.MemStore.Commit(ctx, dir, objs, ifDirVersion, epoch)
}

// TestFailedCommitDropsGroupAndRestores: a commit that fails for a reason
// other than a version conflict leaves the group dropped and its version
// forgotten — never a cache that ran ahead of the cloud — and after a
// restore the same admin serves again.
func TestFailedCommitDropsGroupAndRestores(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	store := &flakyCommitter{MemStore: s.store}
	adm := newCASAdminOn(t, s, store, "admin-flaky")
	members := users(5)
	if err := adm.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	version, _ := s.store.Version(ctx, "g")

	store.mu.Lock()
	store.failNext = true
	store.mu.Unlock()
	if err := adm.AddUser(ctx, "g", "lost@example.com"); err == nil {
		t.Fatal("the injected commit failure did not surface")
	}
	if adm.Manager().HasGroup("g") {
		t.Fatal("group still cached after a failed commit")
	}
	if adm.TracksVersion("g") {
		t.Fatal("directory version still tracked after a failed commit")
	}
	if v, _ := s.store.Version(ctx, "g"); v != version {
		t.Fatalf("failed commit moved the directory from version %d to %d", version, v)
	}

	if err := adm.RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	got, err := adm.Manager().Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(members) {
		t.Fatalf("restored %d members, want %d (the failed add must not have stuck)", len(got), len(members))
	}
	if err := adm.AddUser(ctx, "g", "kept@example.com"); err != nil {
		t.Fatalf("op after restore: %v", err)
	}
	if _, err := s.clientFor(t, "kept@example.com", "g").GroupKey(ctx); err != nil {
		t.Fatalf("member added after the restore cannot decrypt: %v", err)
	}
}

// commitLog is a MemStore that remembers the object names of every commit.
type commitLog struct {
	*storage.MemStore
	commits [][]string
}

func (c *commitLog) Commit(ctx context.Context, dir string, objs []storage.Object, ifDirVersion, epoch uint64) (uint64, error) {
	var names []string
	for _, o := range objs {
		names = append(names, o.Name)
	}
	c.commits = append(c.commits, names)
	return c.MemStore.Commit(ctx, dir, objs, ifDirVersion, epoch)
}

// TestOversizedUpdateSplitsIntoChainedCommits: an update above the payload
// limit goes out as consecutive commits, each on the version the previous
// one produced, buckets then records in sorted order, with the group header
// and the sealed key only at the end of the last — and a standby restores
// the result.
func TestOversizedUpdateSplitsIntoChainedCommits(t *testing.T) {
	s := newSys(t, 3)
	ctx := context.Background()
	store := &commitLog{MemStore: s.store}
	adm := newCASAdminOn(t, s, store, "admin-big")
	up, err := adm.Manager().CreateGroup("g", users(13)) // 5 partitions, 5 buckets
	if err != nil {
		t.Fatal(err)
	}
	puts, closing, err := adm.UpdateObjects(up)
	if err != nil {
		t.Fatal(err)
	}
	// Room for the closing objects plus two records (and a bit): the five
	// records alone need three commits.
	record := len(puts[len(puts)-1].Data)
	limit := len(up.Header) + len(up.SealedGK) + 2*record + record/2
	v, err := adm.CommitUpdate(ctx, up, 0, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(store.commits) < 3 || v != uint64(len(store.commits)) {
		t.Fatalf("got %d commits ending at version %d, want at least 3, one version each: %v", len(store.commits), v, store.commits)
	}
	var got, want []string
	for _, names := range store.commits {
		got = append(got, names...)
	}
	for _, o := range append(puts, closing...) {
		want = append(want, o.Name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("objects committed in order %v, want %v", got, want)
	}
	last := store.commits[len(store.commits)-1]
	if n := len(last); n < 2 || last[n-2] != partition.HeaderObject || last[n-1] != admin.SealedGKObject {
		t.Fatalf("final commit does not end with header and sealed key: %v", last)
	}
	if len(up.Put) != 5 || len(up.Buckets) != 5 || !sort.StringsAreSorted(want[:5]) || !sort.StringsAreSorted(want[5:10]) {
		t.Fatalf("update objects %v, want 5 sorted buckets then 5 sorted records", want)
	}

	standby := newCASAdminOn(t, s, s.store, "standby")
	if err := standby.RestoreGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if err := standby.RemoveUser(ctx, "g", users(13)[0]); err != nil {
		t.Fatalf("op on the split-committed group: %v", err)
	}
}
