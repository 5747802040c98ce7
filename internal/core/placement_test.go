package core

import (
	"fmt"
	"slices"
	"testing"
)

// joined returns the one partition an add's update wrote.
func joined(t *testing.T, up *Update) string {
	t.Helper()
	if len(up.Put) != 1 {
		t.Fatalf("the add wrote %d partitions, want 1", len(up.Put))
	}
	for id := range up.Put {
		return id
	}
	return ""
}

// pagedOpenGroup restores the eight full partitions of four that up created
// on a standby whose cache holds three pages, then has one member of each of
// p000001–p000006 leave in one batch. Six partitions are then open; the
// removal's last chunk, p000004–p000006, is resident, and p000001–p000003
// were evicted.
func pagedOpenGroup(t *testing.T, e *env, up *Update) (*Manager, *memDir) {
	t.Helper()
	dir := newMemDir(t, e)
	dir.apply(up)
	standby := newPagedStandby(t, e, dir, 3)
	members := users(32)
	var leavers []string
	for i := 0; i < 6; i++ {
		leavers = append(leavers, members[4*i])
	}
	rm, err := standby.RemoveUsers("g", leavers)
	if err != nil {
		t.Fatal(err)
	}
	dir.apply(rm)
	return standby, dir
}

// TestAddAfterRemovalJoinsAResidentPage: on a bounded cache, an add that
// follows a removal joins a resident partition with room — the one the
// removal re-keyed, or another — and loads no page, though most open
// partitions are not resident.
func TestAddAfterRemovalJoinsAResidentPage(t *testing.T) {
	e := newEnv(t, 4)
	up, err := e.mgr.CreateGroup("g", users(32))
	if err != nil {
		t.Fatal(err)
	}
	standby, dir := pagedOpenGroup(t, e, up)
	for i, leaver := range []string{users(32)[1], users(32)[9]} { // p000001, then p000003: evicted, open
		rm, err := standby.RemoveUser("g", leaver)
		if err != nil {
			t.Fatal(err)
		}
		dir.apply(rm)
		dir.loads = 0
		add, err := standby.AddUser("g", fmt.Sprintf("joiner-%d@example.com", i))
		if err != nil {
			t.Fatal(err)
		}
		dir.apply(add)
		if dir.loads != 0 {
			t.Errorf("add %d after a removal joined %s and loaded %d pages, want a resident partition and none", i, joined(t, add), dir.loads)
		}
	}
}

// TestPlacementIsSeeded: two standbys with the same seed, driven through the
// same operations, place every joiner in the same partition, drawn among the
// resident partitions with room: three for the first add, then two, then one.
func TestPlacementIsSeeded(t *testing.T) {
	e := newEnv(t, 4)
	up, err := e.mgr.CreateGroup("g", users(32))
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]string
	for r := range runs {
		standby, dir := pagedOpenGroup(t, e, up)
		dir.loads = 0
		for i := 0; i < 3; i++ {
			add, err := standby.AddUser("g", fmt.Sprintf("joiner-%d@example.com", i))
			if err != nil {
				t.Fatal(err)
			}
			dir.apply(add)
			runs[r] = append(runs[r], joined(t, add))
		}
		if dir.loads != 0 {
			t.Fatalf("run %d: the adds loaded %d pages", r, dir.loads)
		}
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Fatalf("the same seed placed joiners in %v and in %v", runs[0], runs[1])
	}
}

// TestAddFallsBackToPickOpen: when no resident page has room, the add draws
// from every open partition and loads the one it joins.
func TestAddFallsBackToPickOpen(t *testing.T) {
	e := newEnv(t, 4)
	members := users(32) // eight full partitions
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)
	standby := newPagedStandby(t, e, dir, 3)
	for _, op := range []func() (*Update, error){
		func() (*Update, error) { return standby.RemoveUser("g", members[0]) }, // p000001 opens
		func() (*Update, error) { return standby.RekeyGroup("g") },             // the sweep leaves p000006–p000008 resident, all full
	} {
		up, err := op()
		if err != nil {
			t.Fatal(err)
		}
		dir.apply(up)
	}
	dir.loads = 0
	add, err := standby.AddUser("g", "joiner@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := joined(t, add); got != "p000001" || dir.loads != 1 {
		t.Fatalf("the add joined %s and loaded %d pages, want the only open partition, p000001, loaded once", got, dir.loads)
	}
}

// TestBatchAddFillsThePartitionsItOpens: on a bounded cache where every
// partition is full, ten joiners at capacity four open ⌈10/4⌉ = 3 partitions
// and fill them in turn, loading nothing.
func TestBatchAddFillsThePartitionsItOpens(t *testing.T) {
	e := newEnv(t, 4)
	up, err := e.mgr.CreateGroup("g", users(32))
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)
	standby := newPagedStandby(t, e, dir, 3)
	joiners := make([]string, 10)
	for i := range joiners {
		joiners[i] = fmt.Sprintf("joiner-%d@example.com", i)
	}
	add, err := standby.AddUsers("g", joiners)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for id, rec := range add.Put {
		sizes[id] = len(rec.Members)
	}
	if want := map[string]int{"p000009": 4, "p000010": 4, "p000011": 2}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("the batch wrote partitions %v, want %v", sizes, want)
	}
	if dir.loads != 0 {
		t.Fatalf("the batch loaded %d pages", dir.loads)
	}
}

// TestUnboundedPlacementIsUnchanged pins where a manager with every page
// resident places joiners for a fixed seed: Index.PickOpen's draw over every
// open partition, as before resident-first placement, so workloads without a
// page bound place bit for bit as they did.
func TestUnboundedPlacementIsUnchanged(t *testing.T) {
	e := newEnv(t, 4) // seed 42, no page bound
	e.mgr.DisableRepartition = true
	members := users(32)
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.RemoveUsers("g", []string{members[0], members[5], members[10], members[15], members[21], members[26]}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 6; i++ {
		add, err := e.mgr.AddUser("g", fmt.Sprintf("joiner-%d@example.com", i))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, joined(t, add))
	}
	want := []string{"p000007", "p000003", "p000001", "p000004", "p000002", "p000006"}
	if !slices.Equal(got, want) {
		t.Fatalf("seed 42 placed the joiners in %v, want %v", got, want)
	}
}
