package cluster

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/membership"
)

// TestNewRouterRequiresEveryTarget: a static router cannot route to a member
// it has no URL for, so building one over such a membership fails.
func TestNewRouterRequiresEveryTarget(t *testing.T) {
	m, err := membership.New([]string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(m, map[string]string{"a": "http://a"}); err == nil {
		t.Fatal("router without a target for b accepted")
	}
	rt, err := NewRouter(m, map[string]string{"a": "http://a", "b": "http://b"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Membership() != m {
		t.Fatal("router does not route by the membership it was built over")
	}
}

// TestRouterRefusalsAreTypedEnvelopes: the router's own refusals — a body
// naming no group, and a sweep no owner answered — come in the shards'
// envelope, so a ClusterClient using the gateway as its fallback gets an
// *APIError carrying the code and the gateway's epoch.
func TestRouterRefusalsAreTypedEnvelopes(t *testing.T) {
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
	ctx := context.Background()
	if _, err := tc.c.ApplyMembership(ctx, tc.c.Membership().Members()); err != nil {
		t.Fatal(err)
	}
	epoch := tc.router.Membership().Epoch
	if epoch != 2 {
		t.Fatalf("gateway at epoch %d, want 2", epoch)
	}
	expect := func(what string, err error, status int, code string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != status || apiErr.Code != code || apiErr.Epoch != epoch {
			t.Fatalf("%s: %v, want a %d %s APIError at epoch %d", what, err, status, code, epoch)
		}
	}
	expect("missing group", tc.api.RekeyGroup(ctx, ""), http.StatusBadRequest, admin.CodeBadRequest)

	tc.router.RouteTimeout = 200 * time.Millisecond
	for _, s := range tc.c.Shards() {
		s.Kill()
	}
	expect("no owner answered", tc.api.RekeyGroup(ctx, "g"), http.StatusServiceUnavailable, admin.CodeNotOwner)
}

// TestShardRefusalsAreTypedEnvelopes: a shard's own refusals — a malformed
// /provision body or ECDH key (400 bad_request), a failed extraction (500
// internal) and any request to a stopped shard (503 not_owner) — come in the
// envelope with the shard's epoch, from the shard directly and through the
// gateway, and a ClusterClient whose only route is a stopped shard gets an
// *APIError carrying the code and epoch. Threshold mode makes the extraction
// fail for real: one live share holder of four cannot extract.
func TestShardRefusalsAreTypedEnvelopes(t *testing.T) {
	tc := startCluster(t, thresholdOptions(4, nil))
	shards := tc.c.Shards()
	epoch := shards[0].Epoch()
	provision := func(what, base, body string, status int, code string) {
		t.Helper()
		resp, err := http.Post(base+"/provision", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer resp.Body.Close()
		var env admin.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: %d answer is not an envelope: %v", what, resp.StatusCode, err)
		}
		if resp.StatusCode != status || env.Status != "error" || env.Error == nil || env.Error.Code != code || env.Epoch != epoch {
			t.Fatalf("%s: %d %+v (error %+v), want a %d %s envelope at epoch %d", what, resp.StatusCode, env, env.Error, status, code, epoch)
		}
	}
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	valid := `{"id":"u@x","ecdh_pub":"` + base64.StdEncoding.EncodeToString(priv.PublicKey().Bytes()) + `"}`
	live := tc.srvs[shards[0].ID].URL
	for _, base := range []string{live, tc.url} {
		provision("bad body", base, "{", http.StatusBadRequest, admin.CodeBadRequest)
		provision("bad ecdh_pub encoding", base, `{"id":"u@x","ecdh_pub":"!"}`, http.StatusBadRequest, admin.CodeBadRequest)
		provision("bad ecdh_pub point", base, `{"id":"u@x","ecdh_pub":"AAAA"}`, http.StatusBadRequest, admin.CodeBadRequest)
	}

	for _, s := range shards[1:] {
		s.Kill()
	}
	for _, base := range []string{live, tc.url} {
		provision("failed extraction", base, valid, http.StatusInternalServerError, admin.CodeInternal)
	}
	stopped := tc.srvs[shards[1].ID].URL
	provision("stopped shard", stopped, valid, http.StatusServiceUnavailable, admin.CodeNotOwner)
	cc, err := client.NewClusterClient(context.Background(), nil, stopped)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	err = cc.RekeyGroup(context.Background(), "g")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Code != admin.CodeNotOwner || apiErr.Epoch != epoch {
		t.Fatalf("rekey on a stopped shard: %v, want a 503 %s APIError at epoch %d", err, admin.CodeNotOwner, epoch)
	}
}
