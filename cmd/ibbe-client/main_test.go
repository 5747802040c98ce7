package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// TestRunPrintsTheGroupKeyFingerprint drives run against a one-shard
// TypeA-160 cluster and a cloud store server: a member provisions its key
// and prints the fingerprint of the group key the admin published; a
// non-member and an unreadable pinned root each fail.
func TestRunPrintsTheGroupKeyFingerprint(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemStore(storage.Latency{})
	cloud := httptest.NewServer(storage.NewServer(mem))
	defer cloud.Close()
	c, err := cluster.New(cluster.Options{Shards: 1, Capacity: 2, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(ctx)
	adm := httptest.NewServer(c.Shards()[0])
	defer adm.Close()
	api, err := client.NewClusterClient(ctx, nil, adm.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := api.CreateGroup(ctx, "g", []string{"alice@x", "bob@x", "carol@x"}); err != nil {
		t.Fatal(err)
	}

	// The admin's group key, as a member reading the store directly sees it.
	scheme, pk, uk, err := admin.ProvisionOverHTTP(adm.Client(), adm.URL, "bob@x", nil)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := client.New(scheme, pk, "bob@x", uk, mem, "g")
	if err != nil {
		t.Fatal(err)
	}
	gk, err := bob.GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(&out, adm.URL, cloud.URL, "alice@x", "g", false, ""); err != nil {
		t.Fatalf("member: %v", err)
	}
	if want := "group g key fingerprint: " + fingerprint(gk) + "\n"; out.String() != want {
		t.Fatalf("member printed %q, want %q", out.String(), want)
	}

	garbage := filepath.Join(t.TempDir(), "root.pem")
	if err := os.WriteFile(garbage, []byte("not a certificate"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, user, root string }{
		{"non-member", "mallory@x", ""},
		{"missing root file", "alice@x", filepath.Join(t.TempDir(), "absent.pem")},
		{"root file without PEM", "alice@x", garbage},
	} {
		out.Reset()
		if err := run(&out, adm.URL, cloud.URL, tc.user, "g", false, tc.root); err == nil {
			t.Fatalf("%s: run succeeded and printed %q", tc.name, out.String())
		}
		if strings.Contains(out.String(), "fingerprint") {
			t.Fatalf("%s: printed a fingerprint: %q", tc.name, out.String())
		}
	}
}
