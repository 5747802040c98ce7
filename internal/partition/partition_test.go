package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%04d", i)
	}
	return out
}

// The partition table of §IV-C — which partition hosts which user — is the
// Index and the directory behind it. These tests drive it the way
// internal/core does (Split + NewPage + Bind to create, PickOpen/NewPage +
// Bind to add, Unbind + DropPage to remove, Repacked to re-partition) and
// keep the names they had when a Table type fronted the same calls.

// bootstrap populates an empty index per Algorithm 1 line 1.
func bootstrap(ix *Index, members []string) error {
	for _, chunk := range Split(members, ix.Capacity()) {
		id := ix.NewPage()
		for _, m := range chunk {
			if err := ix.Bind(id, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func newTable(t *testing.T, capacity int, members int) *Index {
	t.Helper()
	ix, err := NewIndex(capacity, members)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	if err := bootstrap(ix, names(members)); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	return ix
}

// remove takes user out the way a removal does: an emptied partition is
// dropped. It returns the partition that hosted her.
func remove(ix *Index, user string) (string, error) {
	id, err := ix.Unbind(user)
	if err == nil && ix.Count(id) == 0 {
		ix.DropPage(id)
	}
	return id, err
}

// repack re-partitions the index's members into dense partitions (§V-A).
func repack(t *testing.T, ix *Index) *Index {
	t.Helper()
	members, err := ix.Members()
	if err != nil {
		t.Fatal(err)
	}
	dense := ix.Repacked(len(members))
	if err := bootstrap(dense, members); err != nil {
		t.Fatal(err)
	}
	return dense
}

// checkInvariants verifies the structural invariants every operation must
// preserve: partition sizes within capacity, every member bound to exactly
// one registered partition, header counts equal to the directory's bindings,
// no empty partitions.
func checkInvariants(t *testing.T, ix *Index) {
	t.Helper()
	members, err := ix.Members()
	if err != nil {
		t.Fatal(err)
	}
	perPage := make(map[string]int)
	for i, m := range members {
		if i > 0 && members[i-1] == m {
			t.Fatalf("member %s bound twice", m)
		}
		id, ok, err := ix.PageOf(m)
		if err != nil || !ok || !ix.Has(id) {
			t.Fatalf("directory inconsistent for %s: %q %v %v", m, id, ok, err)
		}
		perPage[id]++
	}
	for _, id := range ix.PageIDs() {
		if ix.Count(id) == 0 {
			t.Fatalf("empty partition %s retained", id)
		}
		if ix.Count(id) > ix.Capacity() {
			t.Fatalf("partition %s over capacity: %d > %d", id, ix.Count(id), ix.Capacity())
		}
		if ix.Count(id) != perPage[id] {
			t.Fatalf("partition %s counts %d members, the directory binds %d", id, ix.Count(id), perPage[id])
		}
	}
	if len(members) != ix.Len() {
		t.Fatalf("Len() = %d, members counted = %d", ix.Len(), len(members))
	}
}

func TestNewTableRejectsBadCapacity(t *testing.T) {
	if _, err := NewIndex(0, 0); !errors.Is(err, ErrBadCapacity) {
		t.Fatal("capacity 0 accepted")
	}
}

func TestSplitShapes(t *testing.T) {
	cases := []struct {
		n, cap  int
		want    int
		lastLen int
	}{
		{0, 5, 0, 0},
		{5, 5, 1, 5},
		{6, 5, 2, 1},
		{10, 5, 2, 5},
		{11, 5, 3, 1},
		{3, 1, 3, 1},
	}
	for _, c := range cases {
		got := Split(names(c.n), c.cap)
		if len(got) != c.want {
			t.Fatalf("Split(%d, %d) = %d chunks, want %d", c.n, c.cap, len(got), c.want)
		}
		if c.want > 0 && len(got[len(got)-1]) != c.lastLen {
			t.Fatalf("Split(%d, %d) last chunk = %d, want %d", c.n, c.cap, len(got[len(got)-1]), c.lastLen)
		}
	}
	if Split(names(3), 0) != nil {
		t.Fatal("Split with bad capacity should return nil")
	}
}

func TestSplitCoversAllMembersProperty(t *testing.T) {
	prop := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%50) + 1
		members := names(int(n))
		chunks := Split(members, capacity)
		flat := make([]string, 0, len(members))
		for _, c := range chunks {
			if len(c) == 0 || len(c) > capacity {
				return false
			}
			flat = append(flat, c...)
		}
		if len(flat) != len(members) {
			return false
		}
		for i := range flat {
			if flat[i] != members[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrap(t *testing.T) {
	ix := newTable(t, 10, 25)
	if ix.PageCount() != 3 {
		t.Fatalf("partitions = %d, want 3", ix.PageCount())
	}
	if ix.Len() != 25 {
		t.Fatalf("Len = %d, want 25", ix.Len())
	}
	if ix.Fanout() != 3 {
		t.Fatalf("directory fan-out = %d, want one bucket per capacity names", ix.Fanout())
	}
	checkInvariants(t, ix)
}

func TestBootstrapRejectsDuplicates(t *testing.T) {
	ix := newTable(t, 10, 0)
	if err := bootstrap(ix, []string{"a", "b", "a"}); !errors.Is(err, ErrMemberExists) {
		t.Fatal("duplicate members accepted")
	}
}

func TestBootstrapTwiceFails(t *testing.T) {
	ix := newTable(t, 10, 5)
	if err := bootstrap(ix, names(3)); !errors.Is(err, ErrMemberExists) {
		t.Fatal("second bootstrap of the same members accepted")
	}
}

func TestAddToOpenPartition(t *testing.T) {
	ix := newTable(t, 3, 2)
	id, ok := ix.PickOpen(rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("no open partition in a non-full group")
	}
	if err := ix.Bind(id, "newbie"); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := ix.PageOf("newbie"); !ok || got != id {
		t.Fatal("new member not bound to the picked partition")
	}
	checkInvariants(t, ix)
}

func TestPickOpenPartitionNoneWhenFull(t *testing.T) {
	ix := newTable(t, 2, 4) // two exactly-full partitions
	if _, ok := ix.PickOpen(rand.New(rand.NewSource(1))); ok {
		t.Fatal("found an open partition in a full group")
	}
}

func TestAddDuplicateRejected(t *testing.T) {
	ix := newTable(t, 5, 3)
	id, _ := ix.PickOpen(nil)
	if err := ix.Bind(id, "u0001"); !errors.Is(err, ErrMemberExists) {
		t.Fatal("duplicate add accepted")
	}
	if err := ix.Bind(ix.NewPage(), "u0001"); !errors.Is(err, ErrMemberExists) {
		t.Fatal("duplicate add to a new partition accepted")
	}
}

func TestAddToFullPartitionRejected(t *testing.T) {
	ix := newTable(t, 2, 2)
	if err := ix.Bind(ix.PageIDs()[0], "x"); !errors.Is(err, ErrPartitionFull) {
		t.Fatal("over-capacity add accepted")
	}
}

func TestAddToUnknownPartition(t *testing.T) {
	ix := newTable(t, 2, 2)
	if err := ix.Bind("p-nope", "x"); err == nil {
		t.Fatal("unknown partition accepted")
	}
}

func TestAddNewPartition(t *testing.T) {
	ix := newTable(t, 2, 4)
	id := ix.NewPage()
	if err := ix.Bind(id, "solo"); err != nil {
		t.Fatal(err)
	}
	if id != "p000003" || ix.Count(id) != 1 {
		t.Fatalf("singleton partition malformed: %s with %d members", id, ix.Count(id))
	}
	if ix.PageCount() != 3 {
		t.Fatalf("partitions = %d, want 3", ix.PageCount())
	}
	checkInvariants(t, ix)
}

func TestRemove(t *testing.T) {
	ix := newTable(t, 3, 7)
	id, err := remove(ix, "u0001")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Count(id) != 2 {
		t.Fatalf("affected partition has %d members, want 2", ix.Count(id))
	}
	if has, _ := ix.Contains("u0001"); has {
		t.Fatal("removed member still present")
	}
	checkInvariants(t, ix)
}

func TestRemoveLastMemberDropsPartition(t *testing.T) {
	ix := newTable(t, 3, 4) // partitions of 3 and 1
	id, err := remove(ix, "u0003")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Has(id) {
		t.Fatal("expected emptied partition to be dropped")
	}
	if ix.PageCount() != 1 {
		t.Fatalf("partitions = %d, want 1", ix.PageCount())
	}
	checkInvariants(t, ix)
}

func TestRemoveUnknown(t *testing.T) {
	ix := newTable(t, 3, 3)
	if _, err := remove(ix, "ghost"); !errors.Is(err, ErrNoSuchMember) {
		t.Fatal("removing unknown member accepted")
	}
}

func TestIndexConsistentAfterMiddlePartitionDrop(t *testing.T) {
	ix := newTable(t, 2, 6) // three full partitions
	// Empty the middle partition (u0002, u0003).
	for _, u := range []string{"u0002", "u0003"} {
		if _, err := remove(ix, u); err != nil {
			t.Fatal(err)
		}
	}
	if ix.PageCount() != 2 {
		t.Fatalf("partitions = %d, want 2", ix.PageCount())
	}
	// Members of the last partition must still resolve.
	checkInvariants(t, ix)
	if _, ok, _ := ix.PageOf("u0005"); !ok {
		t.Fatal("lookup lost after partition drop")
	}
	if _, err := remove(ix, "u0005"); err != nil {
		t.Fatalf("remove after drop: %v", err)
	}
	checkInvariants(t, ix)
}

func TestNeedsRepartitionHeuristic(t *testing.T) {
	// Capacity 6 ⇒ two-thirds threshold is 4 members.
	ix := newTable(t, 6, 12) // two full partitions
	if ix.NeedsRepartition() {
		t.Fatal("dense group flagged for repartition")
	}
	// Strip one partition down to 1 member: 1 of 2 well-filled — not < half.
	for _, u := range []string{"u0006", "u0007", "u0008", "u0009", "u0010"} {
		if _, err := remove(ix, u); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NeedsRepartition() {
		t.Fatal("half well-filled flagged for repartition")
	}
	// Strip the other partition too: 0 of 2 well-filled — triggers.
	for _, u := range []string{"u0000", "u0001", "u0002"} {
		if _, err := remove(ix, u); err != nil {
			t.Fatal(err)
		}
	}
	if !ix.NeedsRepartition() {
		t.Fatal("sparse group not flagged for repartition")
	}
}

func TestNeedsRepartitionSinglePartition(t *testing.T) {
	ix := newTable(t, 10, 1)
	if ix.NeedsRepartition() {
		t.Fatal("single-partition group flagged for repartition")
	}
}

func TestReset(t *testing.T) {
	ix := newTable(t, 3, 9)
	// Punch holes across partitions.
	for _, u := range []string{"u0000", "u0003", "u0006", "u0007"} {
		if _, err := remove(ix, u); err != nil {
			t.Fatal(err)
		}
	}
	dense := repack(t, ix)
	if dense.Len() != ix.Len() {
		t.Fatal("re-partitioning changed membership")
	}
	if dense.PageCount() != 2 { // 5 members at capacity 3 → 2 partitions
		t.Fatalf("partitions after reset = %d, want 2", dense.PageCount())
	}
	// Old and new partition IDs never collide.
	if ids := dense.PageIDs(); ids[0] != "p000004" {
		t.Fatalf("re-partitioned IDs start at %s, want the numbering continued", ids[0])
	}
	checkInvariants(t, dense)
	if dense.Occupancy() < 0.8 {
		t.Fatalf("occupancy after reset = %f", dense.Occupancy())
	}
}

func TestOccupancy(t *testing.T) {
	ix := newTable(t, 4, 8)
	if ix.Occupancy() != 1.0 {
		t.Fatalf("full occupancy = %f", ix.Occupancy())
	}
	empty := newTable(t, 4, 0)
	if empty.Occupancy() != 0 {
		t.Fatal("empty table occupancy not zero")
	}
}

func TestRandomizedOperationStream(t *testing.T) {
	// Property: any sequence of add/remove keeps invariants — including the
	// directory resizes the adds trigger (the group starts empty).
	ix := newTable(t, 5, 0)
	rng := rand.New(rand.NewSource(99))
	live := map[string]bool{}
	next, grown := 0, 0
	for step := 0; step < 2000; step++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			user := fmt.Sprintf("m%05d", next)
			next++
			id, ok := ix.PickOpen(rng)
			if !ok {
				id = ix.NewPage()
			}
			if err := ix.Bind(id, user); err != nil {
				t.Fatalf("step %d add: %v", step, err)
			}
			if ix.NeedsGrow() {
				ix.Grow()
				grown++
			}
			live[user] = true
		} else {
			var victim string
			for u := range live {
				victim = u
				break
			}
			if _, err := remove(ix, victim); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			delete(live, victim)
			if ix.NeedsRepartition() {
				ix = repack(t, ix)
			}
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("table size %d, expected %d", ix.Len(), len(live))
	}
	if grown == 0 {
		t.Fatal("a group grown from empty never resized its directory")
	}
	checkInvariants(t, ix)
}

func TestMembersOrderStable(t *testing.T) {
	ix := newTable(t, 3, 7)
	m, err := ix.Members()
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 7 {
		t.Fatalf("Members() = %d entries", len(m))
	}
	for i, u := range names(7) {
		if m[i] != u {
			t.Fatalf("Members()[%d] = %s, want %s", i, m[i], u)
		}
	}
}
