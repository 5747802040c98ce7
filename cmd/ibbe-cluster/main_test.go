package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// TestControlAPIEnvelope exercises the consolidated /admin/cluster/v1/*
// surface: every response is the typed envelope, and the dkg endpoint
// reports the threshold sharing.
func TestControlAPIEnvelope(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		Shards:       2,
		Capacity:     8,
		Store:        storage.NewMemStore(storage.Latency{}),
		Seed:         1,
		LeaseTTL:     500 * time.Millisecond,
		Provisioning: cluster.ProvisionThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(t.Context())
	g := &gateway{c: c, targets: make(map[string]string)}
	g.installAutoscaler(cluster.NewAutoscaler(c, cluster.AutoscalerConfig{Min: 2}))
	ts := httptest.NewServer(g)
	defer ts.Close()

	get := func(path string) *admin.Envelope {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		var env admin.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("GET %s: body is not the envelope: %v", path, err)
		}
		if env.Status != "ok" || env.Epoch != c.Epoch() {
			t.Fatalf("GET %s: envelope = %+v, want status=ok epoch=%d", path, env, c.Epoch())
		}
		return &env
	}

	env := get("/admin/cluster/v1/membership")
	var st membershipStatus
	if err := json.Unmarshal(env.Result, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 2 || st.Epoch != c.Epoch() {
		t.Fatalf("membership result = %+v", st)
	}

	get("/admin/cluster/v1/autoscale")

	env = get("/admin/cluster/v1/dkg")
	var ps cluster.ProvisionerStatus
	if err := json.Unmarshal(env.Result, &ps); err != nil {
		t.Fatal(err)
	}
	if ps.Mode != string(cluster.ProvisionThreshold) || ps.Generation != c.Epoch() || len(ps.Holders) != 2 {
		t.Fatalf("dkg status = %+v", ps)
	}
}

// TestOneShardServesTheSingleAdminAPI: a one-shard deployment, wired as run
// wires it over a remote store, is the single-administrator service — groups
// are created, grown and shrunk through client.AdminAPI, users provision their
// keys through the gateway, members agree on the group key, and a removal
// rotates it and evicts the removed user.
func TestOneShardServesTheSingleAdminAPI(t *testing.T) {
	cloud := httptest.NewServer(storage.NewServer(storage.NewMemStore(storage.Latency{})))
	defer cloud.Close()
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	g, err := start(ctx, options{
		shards: 1, shardHost: "127.0.0.1", storeURL: cloud.URL, capacity: 2,
		paramsName: "fast-160", leaseTTL: 5 * time.Second, provision: "sealed",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.c.Shutdown(context.Background())
	gw := httptest.NewServer(g)
	defer gw.Close()

	api := client.NewAdminAPI(gw.Client(), gw.URL)
	if err := api.CreateGroup(ctx, "g", []string{"alice@x", "bob@x"}); err != nil {
		t.Fatal(err)
	}
	if err := api.AddUser(ctx, "g", "carol@x"); err != nil {
		t.Fatal(err)
	}
	readers := make(map[string]*client.Client)
	for _, u := range []string{"alice@x", "bob@x", "carol@x"} {
		scheme, pk, key, err := admin.ProvisionOverHTTP(gw.Client(), gw.URL, u, nil)
		if err != nil {
			t.Fatalf("provisioning %s through the gateway: %v", u, err)
		}
		if readers[u], err = client.New(scheme, pk, u, key, storage.NewHTTPStore(cloud.URL), "g"); err != nil {
			t.Fatal(err)
		}
	}
	agreed := func(users ...string) [kdf.KeySize]byte {
		t.Helper()
		var ref [kdf.KeySize]byte
		for i, u := range users {
			gk, err := readers[u].Refresh(ctx)
			if err != nil {
				t.Fatalf("%s: %v", u, err)
			}
			if i == 0 {
				ref = gk
			} else if gk != ref {
				t.Fatalf("%s derives a different group key than %s", u, users[0])
			}
		}
		return ref
	}
	before := agreed("alice@x", "bob@x", "carol@x")

	if err := api.RemoveUser(ctx, "g", "bob@x"); err != nil {
		t.Fatal(err)
	}
	if after := agreed("alice@x", "carol@x"); after == before {
		t.Fatal("the removal did not rotate the group key")
	}
	if _, err := readers["bob@x"].Refresh(ctx); !errors.Is(err, client.ErrEvicted) {
		t.Fatalf("removed user reads the group: %v", err)
	}
}

// pollCounter is a store that records how many Polls on the membership
// directory are in flight at once.
type pollCounter struct {
	*storage.MemStore

	mu             sync.Mutex
	inflight, peak int
}

func (p *pollCounter) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	if dir == membership.Dir {
		p.mu.Lock()
		p.inflight++
		p.peak = max(p.peak, p.inflight)
		p.mu.Unlock()
		defer func() {
			p.mu.Lock()
			p.inflight--
			p.mu.Unlock()
		}()
	}
	return p.MemStore.Poll(ctx, dir, since)
}

func (p *pollCounter) counts() (inflight, peak int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight, p.peak
}

// TestGatewayRunsOneMembershipWatch: a started gateway follows the
// membership record with exactly one Poll loop — the cluster's view, which
// the router routes on — not one per membership copy.
func TestGatewayRunsOneMembershipWatch(t *testing.T) {
	store := &pollCounter{MemStore: storage.NewMemStore(storage.Latency{})}
	cloud := httptest.NewServer(storage.NewServer(store))
	defer cloud.Close()
	g, err := start(t.Context(), options{
		shards: 2, shardHost: "127.0.0.1", storeURL: cloud.URL, capacity: 2,
		paramsName: "fast-160", leaseTTL: 5 * time.Second, provision: "sealed",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.c.Shutdown(context.Background())

	deadline := time.Now().Add(10 * time.Second)
	for inflight, _ := store.counts(); inflight == 0; inflight, _ = store.counts() {
		if time.Now().After(deadline) {
			t.Fatal("the gateway never polls the membership record")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A second loop, had one started with the first, is parked in its Poll
	// well within this window.
	time.Sleep(300 * time.Millisecond)
	if _, peak := store.counts(); peak != 1 {
		t.Fatalf("%d concurrent polls on the membership record, want 1", peak)
	}
}

// TestUnknownProvisioningRefused: a -provisioning value that names no mode
// fails the boot with the cluster's own error.
func TestUnknownProvisioningRefused(t *testing.T) {
	_, err := start(t.Context(), options{
		shards: 1, shardHost: "127.0.0.1", capacity: 2,
		paramsName: "fast-160", leaseTTL: 5 * time.Second, provision: "shared",
	})
	if err == nil || !strings.Contains(err.Error(), `unknown provisioning mode "shared"`) {
		t.Fatalf("boot with -provisioning shared: %v", err)
	}
}
