package cluster

import (
	"testing"

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
