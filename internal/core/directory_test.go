package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/partition"
)

// memDir is an in-memory group directory: it applies updates object by
// object and serves them back through the two fetches a restore installs.
type memDir struct {
	t       *testing.T
	e       *env
	objects map[string][]byte
	failGet error // injected: every fetch fails with it
}

func newMemDir(t *testing.T, e *env) *memDir {
	return &memDir{t: t, e: e, objects: make(map[string][]byte)}
}

func (d *memDir) apply(up *Update) {
	d.t.Helper()
	for _, name := range up.Delete {
		delete(d.objects, name)
	}
	for id, rec := range up.Put {
		blob, err := rec.Marshal(d.e.encl.Scheme())
		if err != nil {
			d.t.Fatal(err)
		}
		d.objects[id] = blob
	}
	for name, blob := range up.Buckets {
		d.objects[name] = blob
	}
	d.objects[partition.HeaderObject] = up.Header
	if up.SealedGK != nil {
		d.objects["_sealed_gk"] = up.SealedGK
	}
}

func (d *memDir) get(name string) ([]byte, error) {
	if d.failGet != nil {
		return nil, d.failGet
	}
	blob, ok := d.objects[name]
	if !ok {
		return nil, fmt.Errorf("no object %s", name)
	}
	return blob, nil
}

func (d *memDir) record(id string) (*PartitionRecord, error) {
	blob, err := d.get(id)
	if err != nil {
		return nil, err
	}
	return UnmarshalRecord(d.e.encl.Scheme(), blob)
}

// restore registers the directory's group on mgr the way an admin does:
// header and sealed key now, everything else through lazy fetches.
func (d *memDir) restore(mgr *Manager, group string) {
	d.t.Helper()
	idx, err := partition.UnmarshalIndex(d.objects[partition.HeaderObject])
	if err != nil {
		d.t.Fatal(err)
	}
	idx.SetBucketFetch(d.get)
	if err := mgr.RestoreGroupPaged(group, idx, d.objects["_sealed_gk"], d.record); err != nil {
		d.t.Fatal(err)
	}
}

// groupSnapshot is everything a failed operation must leave as it was: per
// partition its count and envelope, the directory's fan-out and bindings, the
// sealed key. (The partition-ID counter is not in it: a failed add may burn
// IDs, which only ever need to be unique.)
type groupSnapshot struct {
	pages   map[string]string
	fanout  int
	binding map[string]string
	sealed  string
}

func snapshot(t *testing.T, m *Manager, group string) groupSnapshot {
	t.Helper()
	g, err := m.lockGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	defer g.mu.Unlock()
	members, err := g.idx.Members()
	if err != nil {
		t.Fatal(err)
	}
	snap := groupSnapshot{pages: make(map[string]string), fanout: g.idx.Fanout(), binding: make(map[string]string), sealed: string(g.sealedGK)}
	for _, id := range g.idx.PageIDs() {
		y, h := g.idx.Envelope(id)
		snap.pages[id] = fmt.Sprintf("%d|%x|%x", g.idx.Count(id), y, h)
	}
	for _, u := range members {
		snap.binding[u], _, _ = g.idx.PageOf(u)
	}
	return snap
}

// TestFailedOpsLeaveDirectoryUntouched injects an ECALL failure into an add
// and a page-load failure into the re-key arm of a removal — after its
// re-wrap arm already rewrote every other partition's envelope — and checks
// that index, buckets and dirty set are as before the operation.
func TestFailedOpsLeaveDirectoryUntouched(t *testing.T) {
	e := newEnv(t, 2)
	e.mgr.DisableRepartition = true
	e.mgr.SetMaxResidentPages(1)
	members := users(8) // four full partitions
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)
	if err := e.mgr.SetPageSource("g", dir.record); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, e.mgr, "g")
	g := e.mgr.groups["g"]

	// Add: every partition is full, so the joiner opens a fresh one, whose
	// EcallCreatePartition fails on a sealed group key that does not unseal.
	good := g.sealedGK
	g.sealedGK = []byte("not a sealed key")
	if _, err := e.mgr.AddUser("g", "joiner@example.com"); err == nil {
		t.Fatal("add with an unusable sealed key succeeded")
	}
	g.sealedGK = good
	if after := snapshot(t, e.mgr, "g"); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed add changed the group:\n before %+v\n after  %+v", before, after)
	}

	// Remove: the victim's page is evicted (one resident page), and its
	// rehydration fails after EcallRewrapPartitions has succeeded.
	if _, err := e.mgr.Record("g", members[7]); err != nil { // make p000004 the resident page
		t.Fatal(err)
	}
	dir.failGet = errors.New("injected store failure")
	counts := ecallCounts(e)
	if _, err := e.mgr.RemoveUser("g", members[0]); !errors.Is(err, dir.failGet) {
		t.Fatalf("removal through a dead page source: %v", err)
	}
	if counts["rewrap"] != 1 {
		t.Fatalf("the failure was meant to hit after the re-wrap arm: ECALLs %v", counts)
	}
	dir.failGet = nil
	if after := snapshot(t, e.mgr, "g"); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed removal changed the group:\n before %+v\n after  %+v", before, after)
	}

	// Nothing is left dirty: the next successful op publishes only its own
	// objects — record, bucket, header for an add.
	up, err = e.mgr.AddUser("g", "joiner@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Put) != 1 || len(up.Buckets) != 1 || up.SealedGK != nil || len(up.Delete) != 0 {
		t.Fatalf("add after the failed ops published %d records, %d buckets, sealed key %v", len(up.Put), len(up.Buckets), up.SealedGK != nil)
	}
	dir.apply(up)
	recs := e.records(t, "g")
	if decryptAs(t, e, "g", "joiner@example.com", recs) != decryptAs(t, e, "g", members[0], recs) {
		t.Fatal("members disagree after the failed ops")
	}
}

// TestRestoredGroupLoadsOnlyWhatAnOpTouches: a standby that restored from
// header + sealed key serves an add and a removal by loading one bucket and
// at most one record each, refuses a duplicate add and an unknown removal
// from the bucket it loaded, and ends with the same membership as the
// manager that never lost its state.
func TestRestoredGroupLoadsOnlyWhatAnOpTouches(t *testing.T) {
	e := newEnv(t, 2)
	e.mgr.DisableRepartition = true
	members := users(12) // six partitions, six buckets
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)

	standby, err := NewManager(e.encl, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	standby.DisableRepartition = true
	var loaded []string
	idx, err := partition.UnmarshalIndex(dir.objects[partition.HeaderObject])
	if err != nil {
		t.Fatal(err)
	}
	idx.SetBucketFetch(func(name string) ([]byte, error) {
		loaded = append(loaded, name)
		return dir.get(name)
	})
	if err := standby.RestoreGroupPaged("g", idx, dir.objects["_sealed_gk"], func(id string) (*PartitionRecord, error) {
		loaded = append(loaded, id)
		return dir.record(id)
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := standby.AddUser("g", members[3]); !errors.Is(err, partition.ErrMemberExists) {
		t.Fatalf("duplicate add on a restored group: %v", err)
	}
	if _, err := standby.RemoveUser("g", "ghost@example.com"); !errors.Is(err, partition.ErrNoSuchMember) {
		t.Fatalf("unknown removal on a restored group: %v", err)
	}
	if len(loaded) > 2 {
		t.Fatalf("refusing two ops loaded %v, want one bucket each at most", loaded)
	}
	loaded = nil
	up, err = standby.RemoveUser("g", members[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) > 2 || len(up.Put) != 1 || len(up.Buckets) != 1 || up.SealedGK == nil {
		t.Fatalf("removal on a restored group loaded %v and published %d records, %d buckets", loaded, len(up.Put), len(up.Buckets))
	}
	dir.apply(up)
	got, err := standby.Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.RemoveUser("g", members[5]); err != nil {
		t.Fatal(err)
	}
	want, _ := e.mgr.Members("g")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored group lists %v, want %v", got, want)
	}
}

// TestOpsRefuseRosterThatDisagreesWithHeader: roster and count live in
// different objects; a stored record that is not the partition the header
// describes fails the operation that loads it instead of being built on.
func TestOpsRefuseRosterThatDisagreesWithHeader(t *testing.T) {
	e := newEnv(t, 3)
	e.mgr.DisableRepartition = true
	members := users(6)
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)
	s := e.encl.Scheme()
	stale := *up.Put["p000001"]
	for name, rec := range map[string]PartitionRecord{
		"a roster shorter than the count": {PartitionID: "p000001", Members: stale.Members[:2], CT: stale.CT},
		"another partition's record":      {PartitionID: "p000002", Members: stale.Members, CT: stale.CT},
		"a roster over capacity":          {PartitionID: "p000001", Members: append(append([]string(nil), stale.Members...), "x@example.com"), CT: stale.CT},
	} {
		rec := rec
		blob, err := rec.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		dir.objects["p000001"] = blob
		standby, err := NewManager(e.encl, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		dir.restore(standby, "g")
		if _, err := standby.RemoveUser("g", members[0]); !errors.Is(err, ErrBadRecord) {
			t.Errorf("removal built on %s: %v", name, err)
		}
	}
}

// TestFailedRekeyInLastChunkLeavesGroupUntouched: at parallelism 1 a rotation
// sweeps one page per chunk, and a page whose roster disagrees with the
// header count fails the last chunk — after every other partition was
// re-keyed in the enclave. The failed rotation leaves envelopes, bindings,
// the sealed key and every partition's record as they were, whether all pages
// are resident (no page source) or load through a store-backed source behind
// a one-page cache.
func TestFailedRekeyInLastChunkLeavesGroupUntouched(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			e := newEnv(t, 2)
			e.mgr.SetParallelism(1)
			if paged {
				e.mgr.SetMaxResidentPages(1)
			}
			members := users(8) // four full partitions
			up, err := e.mgr.CreateGroup("g", members)
			if err != nil {
				t.Fatal(err)
			}
			g := e.mgr.groups["g"]
			ids := g.idx.PageIDs()
			last := ids[len(ids)-1]
			bad := *up.Put[last]
			bad.Members = bad.Members[:1]
			if paged {
				dir := newMemDir(t, e)
				dir.apply(up)
				blob, err := bad.Marshal(e.encl.Scheme())
				if err != nil {
					t.Fatal(err)
				}
				dir.objects[last] = blob
				if err := e.mgr.SetPageSource("g", dir.record); err != nil {
					t.Fatal(err)
				}
				// The one resident page is creation's copy of last; drop it, so
				// the cache agrees with the store it pages from.
				g.pages.Drop(last)
			} else {
				g.pages.Put(&partition.Page{ID: last, Members: bad.Members, Payload: bad.CT})
				g.pages.ReleasePins()
			}
			marshal := func(recs map[string]*PartitionRecord) map[string]string {
				out := make(map[string]string, len(recs))
				for id, rec := range recs {
					blob, err := rec.Marshal(e.encl.Scheme())
					if err != nil {
						t.Fatal(err)
					}
					out[id] = string(blob)
				}
				return out
			}
			before, recsBefore := snapshot(t, e.mgr, "g"), marshal(e.records(t, "g"))

			counts := ecallCounts(e)
			if _, err := e.mgr.RekeyGroup("g"); !errors.Is(err, ErrBadRecord) {
				t.Fatalf("rotation over a roster the header disagrees with: %v", err)
			}
			if counts["rekey"] != len(ids)-1 {
				t.Fatalf("the failure was meant to hit the last chunk: %d of %d partitions re-keyed first", counts["rekey"], len(ids))
			}
			if after := snapshot(t, e.mgr, "g"); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed rotation changed the group:\n before %+v\n after  %+v", before, after)
			}
			for _, id := range ids {
				if p, ok := g.pages.Peek(id); ok {
					if got := marshal(map[string]*PartitionRecord{id: g.record(p)}); got[id] != recsBefore[id] {
						t.Fatalf("resident page %s changed under the failed rotation", id)
					}
				}
			}
			if after := marshal(e.records(t, "g")); !reflect.DeepEqual(after, recsBefore) {
				t.Fatal("failed rotation changed a partition record")
			}
		})
	}
}
