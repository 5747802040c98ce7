package membership

import (
	"fmt"
	"slices"
	"testing"
)

// TestRingOwnersSequence: for every group, Owners lists each member
// exactly once and starts at Owner — the failover order a sweep walks.
func TestRingOwnersSequence(t *testing.T) {
	for n := 1; n <= 6; n++ {
		shards := make([]string, n)
		for i := range shards {
			shards[i] = fmt.Sprintf("shard-%d", i)
		}
		m, err := New(shards, 16)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 200; g++ {
			group := fmt.Sprintf("g%d", g)
			owners := m.Owners(group)
			if owners[0] != m.Owner(group) {
				t.Fatalf("Owners(%s)[0] = %s, Owner = %s", group, owners[0], m.Owner(group))
			}
			sorted := slices.Sorted(slices.Values(owners))
			if !slices.Equal(sorted, m.Members()) {
				t.Fatalf("Owners(%s) = %v is not a permutation of %v", group, owners, m.Members())
			}
		}
	}
}

// TestMembershipArcBoundedMovement: a join moves groups only to the joining
// shard, a leave moves only the leaver's groups, and each successor
// advances the epoch by one; leaving again restores the old assignment.
func TestMembershipArcBoundedMovement(t *testing.T) {
	m, err := New([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := m.AddShard("d")
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := m.RemoveShard("b")
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || grown.Epoch != 2 || shrunk.Epoch != 2 {
		t.Fatalf("epochs %d → %d / %d", m.Epoch, grown.Epoch, shrunk.Epoch)
	}
	// Shrinking back restores the exact previous assignment.
	back, err := grown.RemoveShard("d")
	if err != nil {
		t.Fatal(err)
	}
	joined, left := 0, 0
	for g := 0; g < 2000; g++ {
		group := fmt.Sprintf("group-%d", g)
		before := m.Owner(group)
		if back.Owner(group) != before {
			t.Fatalf("%s owner changed across a grow+shrink round trip", group)
		}
		if after := grown.Owner(group); after != before {
			if after != "d" {
				t.Fatalf("%s moved %s → %s when d joined", group, before, after)
			}
			joined++
		}
		if after := shrunk.Owner(group); after != before {
			if before != "b" {
				t.Fatalf("%s moved %s → %s when b left", group, before, after)
			}
			left++
		}
	}
	if joined == 0 || left == 0 {
		t.Fatalf("a membership change moved nothing (joined %d, left %d)", joined, left)
	}
}

func TestMembershipEpochChain(t *testing.T) {
	m1, err := New([]string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m1.AddShard("c")
	if err != nil {
		t.Fatal(err)
	}
	m3, err := m2.RemoveShard("a")
	if err != nil {
		t.Fatal(err)
	}
	if m3.Epoch != 3 || m3.Has("a") || !m3.Has("c") {
		t.Fatalf("epoch %d members %v", m3.Epoch, m3.Members())
	}
	if m1.Epoch != 1 || !slices.Equal(m1.Members(), []string{"a", "b"}) {
		t.Fatal("a successor changed its predecessor")
	}
	if _, err := m2.AddShard("b"); err == nil {
		t.Fatal("re-adding a member accepted")
	}
	if _, err := m2.RemoveShard("z"); err == nil {
		t.Fatal("removing a non-member accepted")
	}
	last, err := At(9, []string{"a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := last.RemoveShard("a"); err == nil {
		t.Fatal("removing the last member accepted")
	}
}

func TestRingRejectsOversizedRings(t *testing.T) {
	if _, err := NewRing([]string{"a"}, MaxVirtualNodes+1); err == nil {
		t.Fatal("vnodes above MaxVirtualNodes accepted")
	}
	shards := make([]string, MaxRingPoints/DefaultVirtualNodes+1)
	for i := range shards {
		shards[i] = fmt.Sprint(i)
	}
	if _, err := NewRing(shards, 0); err == nil {
		t.Fatal("ring above MaxRingPoints accepted")
	}
}
