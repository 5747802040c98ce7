package cluster

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/membership"
)

// TestRouterApplyMembership pins the router's adoption rules: a stale or
// duplicate epoch changes nothing, a membership with a member lacking a URL
// is refused, and a real epoch bump swaps the membership and clears the
// health cache. The cache is observed through the router's own sweep, in
// which "a" is not the owner, "b" is unreachable and "c" serves.
func TestRouterApplyMembership(t *testing.T) {
	m, err := membership.New([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() []string {
		var tried []string
		err := rt.view.Sweep(context.Background(), "", membership.Pace{HealthTTL: time.Hour}, func(_ context.Context, c membership.Candidate) (membership.Verdict, error) {
			tried = append(tried, c.ID)
			switch c.ID {
			case "a":
				return membership.NotOwner, errors.New("not owner")
			case "b":
				return membership.Unreachable, errors.New("connection refused")
			}
			return membership.Served, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tried
	}
	if got := sweep(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("first sweep tried %v", got)
	}
	if got := sweep(); !slices.Equal(got, []string{"a", "c"}) {
		t.Fatalf("sweep with b cached down tried %v, want [a c]", got)
	}

	// Stale epochs are ignored.
	if err := rt.ApplyMembership(m, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}); err != nil {
		t.Fatal(err)
	}
	if rt.Membership() != m {
		t.Fatal("duplicate epoch replaced the membership")
	}
	// Missing targets are rejected.
	grown, err := m.AddShard("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ApplyMembership(grown, map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}); err == nil {
		t.Fatal("membership without a target for d accepted")
	}
	// A real epoch bump swaps membership and invalidates the health cache.
	targets := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c", "d": "http://d"}
	if err := rt.ApplyMembership(grown, targets); err != nil {
		t.Fatal(err)
	}
	if rt.Membership().Epoch != grown.Epoch {
		t.Fatalf("router epoch = %d, want %d", rt.Membership().Epoch, grown.Epoch)
	}
	if got := sweep(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("health cache survived the epoch change: sweep tried %v", got)
	}
}
