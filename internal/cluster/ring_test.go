package cluster

import (
	"fmt"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/membership"
)

func TestRingDeterministicOwnership(t *testing.T) {
	r1, err := membership.NewRing([]string{"shard-0", "shard-1", "shard-2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := membership.NewRing([]string{"shard-2", "shard-0", "shard-1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g := fmt.Sprintf("group-%d", i)
		if r1.Owner(g) != r2.Owner(g) {
			t.Fatalf("ownership depends on construction order for %s", g)
		}
	}
}

func TestRingBalance(t *testing.T) {
	shards := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r, err := membership.NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const groups = 4000
	for i := 0; i < groups; i++ {
		counts[r.Owner(fmt.Sprintf("group-%d", i))]++
	}
	for _, s := range shards {
		frac := float64(counts[s]) / groups
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("shard %s owns %.1f%% of groups — ring badly unbalanced: %v", s, frac*100, counts)
		}
	}
}

func TestRingConsistencyUnderMemberLoss(t *testing.T) {
	full, err := membership.NewRing([]string{"a", "b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := membership.NewRing([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Consistent hashing: removing one shard must only move the groups that
	// shard owned; everything else keeps its owner.
	moved := 0
	const groups = 1000
	for i := 0; i < groups; i++ {
		g := fmt.Sprintf("group-%d", i)
		before := full.Owner(g)
		after := reduced.Owner(g)
		if before == "d" {
			continue // had to move
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d groups moved despite their owner surviving", moved)
	}
}

func TestRingRejectsBadInput(t *testing.T) {
	if _, err := membership.NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := membership.NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate shard accepted")
	}
}
