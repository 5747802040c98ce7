package main

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
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
