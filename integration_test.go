package ibbesgx_test

// Cross-module integration tests: the full public-API system exercised over
// the real HTTP storage protocol, under injected cloud faults, and across
// an administrator restart. These are the failure-mode scenarios a
// production deployment hits that no single package test covers.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	ibbesgx "github.com/ibbesgx/ibbesgx"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

func memberList(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("member-%03d@int.example", i)
	}
	return out
}

func newTestSystem(t *testing.T, capacity int) *ibbesgx.System {
	t.Helper()
	sys, err := ibbesgx.NewSystem(ibbesgx.Options{Params: "fast-160", PartitionCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestIntegrationFullLifecycleOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration: skipped in -short CI runs")
	}
	// System + HTTP cloud + several clients: create, churn, rekey,
	// repartition — every client stays consistent throughout.
	sys := newTestSystem(t, 3)
	backing := ibbesgx.NewMemStore()
	srv := httptest.NewServer(ibbesgx.NewStorageServer(backing))
	defer srv.Close()
	store := ibbesgx.NewHTTPStore(srv.URL)
	ctx := context.Background()

	admin, err := sys.NewAdmin("ops", store)
	if err != nil {
		t.Fatal(err)
	}
	members := memberList(8)
	if err := admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}

	clients := make(map[string]*ibbesgx.Client)
	for _, m := range members {
		creds, err := sys.ProvisionUser(m)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sys.NewClient(creds, store, "g")
		if err != nil {
			t.Fatal(err)
		}
		clients[m] = c
	}

	assertConverged := func(live []string) ibbesgx.GroupKey {
		t.Helper()
		var ref ibbesgx.GroupKey
		for i, m := range live {
			gk, err := clients[m].Refresh(ctx)
			if err != nil {
				t.Fatalf("refresh %s: %v", m, err)
			}
			if i == 0 {
				ref = gk
			} else if gk != ref {
				t.Fatalf("member %s diverged", m)
			}
		}
		return ref
	}

	k1 := assertConverged(members)
	if err := admin.RemoveUser(ctx, "g", members[0]); err != nil {
		t.Fatal(err)
	}
	if err := admin.AddUser(ctx, "g", "fresh@int.example"); err != nil {
		t.Fatal(err)
	}
	creds, err := sys.ProvisionUser("fresh@int.example")
	if err != nil {
		t.Fatal(err)
	}
	clients["fresh@int.example"], err = sys.NewClient(creds, store, "g")
	if err != nil {
		t.Fatal(err)
	}
	live := append(append([]string{}, members[1:]...), "fresh@int.example")
	k2 := assertConverged(live)
	if k2 == k1 {
		t.Fatal("revocation did not rotate the key")
	}
	if err := admin.RekeyGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	k3 := assertConverged(live)
	if k3 == k2 {
		t.Fatal("rekey did not rotate the key")
	}
	if err := admin.Repartition(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	assertConverged(live)
}

func TestIntegrationAdminFaultMidApply(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration: skipped in -short CI runs")
	}
	// The cloud fails partway through a multi-partition removal. The admin
	// surfaces the error and drops the group from its cache; restoring it
	// from the cloud and republishing via Repartition leaves a fully
	// consistent cloud state, and clients converge again.
	sys := newTestSystem(t, 2)
	mem := storage.NewMemStore(storage.Latency{})
	faulty := storage.NewFaultStore(mem)
	ctx := context.Background()

	admin, err := sys.NewAdmin("ops", faulty)
	if err != nil {
		t.Fatal(err)
	}
	members := memberList(6) // three partitions
	if err := admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}

	// Fail the second Put of the removal's republication.
	faulty.FailEveryPut(2)
	err = admin.RemoveUser(ctx, "g", members[5])
	faulty.FailEveryPut(0)
	if err == nil {
		t.Fatal("mid-apply fault not surfaced")
	}
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("unexpected error: %v", err)
	}

	// Recovery: resume the group from the cloud and force a full
	// republication. Clients converge on one key afterwards.
	if err := admin.RestoreGroup(ctx, "g"); err != nil {
		t.Fatalf("restore after the failed removal: %v", err)
	}
	if err := admin.Repartition(ctx, "g"); err != nil {
		t.Fatalf("recovery republication failed: %v", err)
	}
	var ref ibbesgx.GroupKey
	for i, m := range members[:5] {
		creds, err := sys.ProvisionUser(m)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sys.NewClient(creds, faulty, "g")
		if err != nil {
			t.Fatal(err)
		}
		gk, err := c.GroupKey(ctx)
		if err != nil {
			t.Fatalf("client %s after recovery: %v", m, err)
		}
		if i == 0 {
			ref = gk
		} else if gk != ref {
			t.Fatalf("client %s diverged after recovery", m)
		}
	}
}

func TestIntegrationClientRetriesThroughOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration: skipped in -short CI runs")
	}
	// Reads fail during a cloud outage; once the outage clears, the same
	// client object recovers without re-provisioning.
	sys := newTestSystem(t, 2)
	mem := storage.NewMemStore(storage.Latency{})
	faulty := storage.NewFaultStore(mem)
	ctx := context.Background()

	admin, err := sys.NewAdmin("ops", faulty)
	if err != nil {
		t.Fatal(err)
	}
	members := memberList(2)
	if err := admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	creds, err := sys.ProvisionUser(members[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(creds, faulty, "g")
	if err != nil {
		t.Fatal(err)
	}

	faulty.SetFailGets(true)
	if _, err := c.Refresh(ctx); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("outage not surfaced: %v", err)
	}
	faulty.SetFailGets(false)
	if _, err := c.Refresh(ctx); err != nil {
		t.Fatalf("client did not recover after outage: %v", err)
	}
}

func TestIntegrationConcurrentAdminsOneManager(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration: skipped in -short CI runs")
	}
	// Several administrator frontends share one manager (the paper's model:
	// few admins serving many groups). Concurrent operations on different
	// groups must serialise safely and leave every group decryptable.
	sys := newTestSystem(t, 3)
	store := ibbesgx.NewMemStore()
	ctx := context.Background()

	const admins = 4
	var wg sync.WaitGroup
	errCh := make(chan error, admins)
	for i := 0; i < admins; i++ {
		i := i
		adm, err := sys.NewAdmin(fmt.Sprintf("admin-%d", i), store)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			group := fmt.Sprintf("team-%d", i)
			members := make([]string, 5)
			for j := range members {
				members[j] = fmt.Sprintf("m%d-%d@int.example", i, j)
			}
			if err := adm.CreateGroup(ctx, group, members); err != nil {
				errCh <- err
				return
			}
			if err := adm.RemoveUser(ctx, group, members[0]); err != nil {
				errCh <- err
				return
			}
			if err := adm.AddUser(ctx, group, fmt.Sprintf("late-%d@int.example", i)); err != nil {
				errCh <- err
				return
			}
			errCh <- nil
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Spot-check decryption in each group.
	for i := 0; i < admins; i++ {
		user := fmt.Sprintf("m%d-1@int.example", i)
		creds, err := sys.ProvisionUser(user)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sys.NewClient(creds, store, fmt.Sprintf("team-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.GroupKey(ctx); err != nil {
			t.Fatalf("group team-%d unreadable: %v", i, err)
		}
	}
	// The shared certified log saw all 12 operations, chain intact.
	if sys.Log().Len() != 3*admins {
		t.Fatalf("log entries = %d, want %d", sys.Log().Len(), 3*admins)
	}
}

func TestIntegrationWatchLatencyInjectedCloud(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration: skipped in -short CI runs")
	}
	// With injected cloud latency, Watch still converges — the regime where
	// the paper argues decrypt cost is overshadowed by cloud RTTs.
	sys := newTestSystem(t, 2)
	store := ibbesgx.NewMemStoreWithLatency(ibbesgx.Latency{Put: 5 * time.Millisecond, Get: 5 * time.Millisecond, Notify: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	admin, err := sys.NewAdmin("ops", store)
	if err != nil {
		t.Fatal(err)
	}
	members := memberList(2)
	if err := admin.CreateGroup(ctx, "g", members); err != nil {
		t.Fatal(err)
	}
	creds, err := sys.ProvisionUser(members[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(creds, store, "g")
	if err != nil {
		t.Fatal(err)
	}

	keyCh := make(chan ibbesgx.GroupKey, 4)
	go func() {
		_ = c.Watch(ctx, func(gk ibbesgx.GroupKey) { keyCh <- gk })
	}()
	var first ibbesgx.GroupKey
	select {
	case first = <-keyCh:
	case <-time.After(10 * time.Second):
		t.Fatal("initial key never arrived")
	}
	if err := admin.RekeyGroup(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	select {
	case second := <-keyCh:
		if second == first {
			t.Fatal("rotation delivered identical key")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rotated key never arrived")
	}
}
