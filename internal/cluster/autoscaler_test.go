package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// TestClusterAutoscaleGrowUnderLoad is the acceptance scenario for the
// autoscaling controller: a 2-shard cluster under a continuous membership
// workload must be grown to 4 members by the controller alone — zero
// operator calls, zero failed operations, zero failed client decrypts —
// with every change riding the persisted-membership path (the store
// record's epoch matches the cluster's after each grow).
func TestClusterAutoscaleGrowUnderLoad(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()

	const groups = 6
	groupName := func(i int) string { return fmt.Sprintf("autogrow-%d", i) }
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := tc.api.CreateGroup(ctx, g, groupUsers(g, 4)); err != nil {
			t.Fatal(err)
		}
	}

	as := NewAutoscaler(tc.c, AutoscalerConfig{
		Min:      2,
		Max:      4,
		GrowLoad: 1_000, // any sustained load grows
		Interval: 20 * time.Millisecond,
	})
	as.OnMint = func(s *Shard) error {
		tc.serveShard(t, s)
		return nil
	}
	defer as.Stop()

	// Continuous churn through the gateway: the load signal the controller
	// watches (groups owned × crypto-op rate on each shard's metrics).
	stop := make(chan struct{})
	errc := make(chan error, groups)
	var wg sync.WaitGroup
	for i := 0; i < groups; i++ {
		g := groupName(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				u := fmt.Sprintf("%s-churn%03d@example.com", g, k)
				if err := tc.api.AddUser(ctx, g, u); err != nil {
					errc <- fmt.Errorf("%s add: %w", g, err)
					return
				}
				if err := tc.api.RemoveUser(ctx, g, u); err != nil {
					errc <- fmt.Errorf("%s remove: %w", g, err)
					return
				}
			}
		}()
	}

	as.Start()
	waitUntil(t, 30*time.Second, "controller to grow the cluster to 4 members", func() bool {
		return len(tc.c.Membership().Members()) == 4
	})
	as.Stop()

	// Let the enlarged cluster serve a little, then stop the load: every
	// single operation across the whole grow must have succeeded.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			tc.dumpOwnership(t)
			t.Fatal(err)
		}
	}

	// The controller's changes are durable: store record == live membership.
	rec, _, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	final := tc.c.Membership()
	if rec.Epoch != final.Epoch || !sameMembers(rec.Members, final.Members()) {
		t.Fatalf("store record (epoch %d, %v) diverged from cluster (epoch %d, %v)",
			rec.Epoch, rec.Members, final.Epoch, final.Members())
	}
	if final.Epoch != 3 { // two grows: 1 → 2 → 3
		t.Fatalf("final epoch %d, want 3", final.Epoch)
	}
	status := as.Status()
	if status.LastAction == "" {
		t.Fatal("controller recorded no action")
	}
	// Every scaling action lands in the decision log with the signal values
	// that triggered it: two grows, each above the threshold it crossed.
	var grows int
	for _, d := range status.Decisions {
		if d.Action != "grow" {
			continue
		}
		grows++
		if d.AvgLoad <= 1_000 {
			t.Fatalf("grow decision logged avg load %v, not above the 1000 threshold: %+v", d.AvgLoad, d)
		}
		if d.MemberLoad <= 0 {
			t.Fatalf("grow under churn logged zero member crypto load: %+v", d)
		}
		if d.Members < 2 || d.Members >= 4 {
			t.Fatalf("grow decision logged implausible member count: %+v", d)
		}
		if d.Detail == "" || d.At.IsZero() {
			t.Fatalf("grow decision missing detail/timestamp: %+v", d)
		}
	}
	if grows != 2 {
		t.Fatalf("decision log has %d grow entries, want 2: %+v", grows, status.Decisions)
	}

	// Zero failed decrypts: one settling op per group, then every member
	// derives one shared key, and ownership matches the final ring.
	for i := 0; i < groups; i++ {
		g := groupName(i)
		if err := tc.api.AddUser(ctx, g, g+"-final@example.com"); err != nil {
			tc.dumpOwnership(t)
			t.Fatalf("settling op on %s: %v", g, err)
		}
		owner := tc.c.Shard(final.Owner(g))
		members, err := owner.Admin.Manager().Members(g)
		if err != nil {
			tc.dumpOwnership(t)
			t.Fatalf("final owner of %s has no state: %v", g, err)
		}
		tc.assertOneGroupKey(t, g, members)
	}
	for _, id := range final.Members() {
		for _, g := range tc.c.Shard(id).OwnedGroups() {
			if final.Owner(g) != id {
				t.Fatalf("%s owns %s but the final ring says %s", id, g, final.Owner(g))
			}
		}
	}
}

// TestAutoscalerShrinksWhenIdle drives the other direction: with the
// workload gone, measured load falls below the shrink threshold and the
// controller drains members down to Min — through the same persisted path.
func TestAutoscalerShrinksWhenIdle(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 3, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()

	if err := tc.api.CreateGroup(ctx, "idle", groupUsers("idle", 4)); err != nil {
		t.Fatal(err)
	}

	as := NewAutoscaler(tc.c, AutoscalerConfig{
		Min:      2,
		Max:      3,
		GrowLoad: 1 << 40, // never grow; idle load is far below GrowLoad/8
		Interval: 20 * time.Millisecond,
	})
	as.Start()
	defer as.Stop()

	waitUntil(t, 15*time.Second, "controller to drain the idle cluster to 2 members", func() bool {
		return len(tc.c.Membership().Members()) == 2
	})
	rec, _, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Members) != 2 || rec.Epoch != tc.c.Epoch() {
		t.Fatalf("store record after shrink: epoch %d members %v", rec.Epoch, rec.Members)
	}

	// Min is a floor: give the controller a few more ticks and confirm it
	// never drains below it.
	time.Sleep(200 * time.Millisecond)
	if got := len(tc.c.Membership().Members()); got != 2 {
		t.Fatalf("controller drained below Min: %d members", got)
	}

	// The group still serves from a surviving member.
	if err := tc.api.AddUser(ctx, "idle", "post-shrink@example.com"); err != nil {
		t.Fatalf("op after shrink: %v", err)
	}
	tc.assertOneGroupKey(t, "idle", groupUsers("idle", 4))
}

// TestAutoscalerConfigDefaults pins the defaulting rules the control
// endpoint relies on (zero config must come out sane and non-oscillating).
func TestAutoscalerConfigDefaults(t *testing.T) {
	cfg := AutoscalerConfig{}.withDefaults()
	if cfg.Min < 1 || cfg.Max < cfg.Min {
		t.Fatalf("bounds: %d..%d", cfg.Min, cfg.Max)
	}
	if cfg.shrinkLoad() >= cfg.GrowLoad {
		t.Fatalf("shrink %v not below grow %v — would oscillate", cfg.shrinkLoad(), cfg.GrowLoad)
	}
	if cfg.Interval <= 0 {
		t.Fatalf("timing: interval %v", cfg.Interval)
	}
	clamped := AutoscalerConfig{Min: 5, Max: 2}.withDefaults()
	if clamped.Max != 5 {
		t.Fatalf("max below min not clamped: %d..%d", clamped.Min, clamped.Max)
	}
}
