package cluster

import (
	"context"
	"errors"
	"net/http"
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
