package core

import (
	"fmt"
	"testing"
)

// newPagedStandby restores the directory's group on a fresh manager whose
// page cache holds at most bound pages, with a worker pool wider than the
// bound, so the bound and not the pool sizes every chunk.
func newPagedStandby(t *testing.T, e *env, dir *memDir, bound int) *Manager {
	t.Helper()
	standby, err := NewManager(e.encl, e.mgr.Capacity(), 7)
	if err != nil {
		t.Fatal(err)
	}
	standby.DisableRepartition = true
	standby.SetParallelism(bound + 1)
	standby.SetMaxResidentPages(bound)
	dir.restore(standby, "g")
	return standby
}

// TestEveryOpKeepsThePageBound: on a restored, paged group, a removal, an
// add, a rotation and a re-partition that each touch more partitions than
// the cache holds never have more than the bound resident, and the group
// still decrypts for its members afterwards.
func TestEveryOpKeepsThePageBound(t *testing.T) {
	const bound = 3
	e := newEnv(t, 4)
	members := users(32) // eight full partitions
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)
	standby := newPagedStandby(t, e, dir, bound)

	// One member of each of the first six partitions leaves, and six joiners
	// fill exactly the six slots that opens.
	var leavers, joiners []string
	for i := 0; i < 6; i++ {
		leavers = append(leavers, members[4*i])
		joiners = append(joiners, fmt.Sprintf("joiner-%d@example.com", i))
	}
	for _, op := range []struct {
		name    string
		touched int
		run     func() (*Update, error)
	}{
		{"remove", 6, func() (*Update, error) { return standby.RemoveUsers("g", leavers) }},
		{"add", 6, func() (*Update, error) { return standby.AddUsers("g", joiners) }},
		{"rekey", 8, func() (*Update, error) { return standby.RekeyGroup("g") }},
		{"repartition", 8, func() (*Update, error) { return standby.Repartition("g") }},
	} {
		if err := standby.ResetGroupHighWater("g"); err != nil {
			t.Fatal(err)
		}
		up, err := op.run()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if len(up.Put) != op.touched {
			t.Fatalf("%s wrote %d partitions, want %d", op.name, len(up.Put), op.touched)
		}
		dir.apply(up)
		stats, err := standby.GroupPageStats("g")
		if err != nil {
			t.Fatal(err)
		}
		if stats.HighWater > bound {
			t.Errorf("%s over %d partitions peaked at %d resident pages, bound %d", op.name, op.touched, stats.HighWater, bound)
		}
	}

	recs, err := standby.Records("g")
	if err != nil {
		t.Fatal(err)
	}
	gk := decryptAs(t, e, "g", joiners[0], recs)
	if decryptAs(t, e, "g", members[1], recs) != gk {
		t.Fatal("members disagree on the key after the paged ops")
	}
}

// TestReadsLeaveTheCacheAlone: Record and Records on a full paged cache
// serve resident pages from it and read the others straight from the store,
// so residency, evictions and the high-water mark stay as they were.
func TestReadsLeaveTheCacheAlone(t *testing.T) {
	const bound = 2
	e := newEnv(t, 4)
	members := users(32) // eight full partitions
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)
	standby := newPagedStandby(t, e, dir, bound)
	if up, err = standby.RekeyGroup("g"); err != nil { // fills the cache
		t.Fatal(err)
	}
	dir.apply(up)
	if err := standby.ResetGroupHighWater("g"); err != nil {
		t.Fatal(err)
	}
	before, err := standby.GroupPageStats("g")
	if err != nil {
		t.Fatal(err)
	}
	if before.Resident != bound {
		t.Fatalf("%d pages resident after a rotation, want the full cache of %d", before.Resident, bound)
	}
	recs, err := standby.Records("g")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{members[0], members[31]} {
		rec, err := standby.Record("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.ContainsMember(u) || rec.PartitionID != recs[rec.PartitionID].PartitionID {
			t.Fatalf("Record(%s) returned partition %s", u, rec.PartitionID)
		}
	}
	after, err := standby.GroupPageStats("g")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("reads changed the page cache: before %+v, after %+v", before, after)
	}
	if decryptAs(t, e, "g", members[0], recs) != decryptAs(t, e, "g", members[31], recs) {
		t.Fatal("records read past the cache disagree on the key")
	}
}
