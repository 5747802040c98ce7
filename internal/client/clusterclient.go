package client

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// ClusterClient is a cluster-aware admin client: it follows the same
// persisted membership record the shards coordinate through and sends
// admin operations straight to the group's owning shard — no routing
// gateway on the path. Owner resolution, failover and fenced-epoch
// recovery are the routing view's ring-order sweep (membership.View.Sweep);
// when the sweep finds no route, the operation falls back to the router,
// if one is configured.
//
// Safe for concurrent use.
type ClusterClient struct {
	// Store is the cloud store holding the membership record.
	Store storage.Store
	// HTTP is the transport; nil selects http.DefaultClient.
	HTTP *http.Client
	// Fallback is a router URL used when direct routing cannot resolve
	// (empty disables the fallback).
	Fallback string
	// RouteTimeout bounds one operation's routing effort (default 30s).
	RouteTimeout time.Duration
	// RetryInterval paces re-sweeps while owners are unreachable (default
	// 25ms).
	RetryInterval time.Duration
	// Cache, when set, is wholesale-invalidated each time the client adopts
	// a newer membership epoch — records may have moved or been re-keyed.
	Cache *RecordCache

	view *membership.View

	direct          atomic.Int64
	proxied         atomic.Int64
	fencedRefreshes atomic.Int64

	mRoutes *obs.CounterVec
	mFenced *obs.Counter
}

// NewClusterClient loads the current membership record and returns a
// client routing directly to shards. A store with no record yet is not an
// error: the client starts in fallback-only mode and adopts the record via
// Watch or the first sweep's refresh.
func NewClusterClient(ctx context.Context, store storage.Store, fallbackURL string) (*ClusterClient, error) {
	c := &ClusterClient{Store: store, Fallback: fallbackURL, view: membership.NewView(store)}
	c.view.OnAdopt = func(*membership.Membership) {
		if c.Cache != nil {
			c.Cache.InvalidateAll()
		}
	}
	if err := c.view.Reload(ctx); err != nil && !errors.Is(err, membership.ErrNoRecord) {
		return nil, err
	}
	return c, nil
}

// Instrument registers the client's routing counters with the registry.
// Call before serving traffic; a nil registry is a no-op.
func (c *ClusterClient) Instrument(reg *obs.Registry) *ClusterClient {
	if reg == nil {
		return c
	}
	c.mRoutes = reg.CounterVec("ibbe_client_routes_total", "Admin operations by route taken (direct to owner shard vs proxied via router).", "route")
	c.mFenced = reg.Counter("ibbe_client_fenced_refreshes_total", "Membership reloads triggered by a fenced (stale-epoch) response.")
	return c
}

// RouteStats is a snapshot of the client's routing counters.
type RouteStats struct {
	Direct          int64
	Proxied         int64
	FencedRefreshes int64
}

// Stats returns a snapshot of the routing counters.
func (c *ClusterClient) Stats() RouteStats {
	return RouteStats{
		Direct:          c.direct.Load(),
		Proxied:         c.proxied.Load(),
		FencedRefreshes: c.fencedRefreshes.Load(),
	}
}

// Epoch returns the membership epoch the client currently routes by (0
// before any record was adopted).
func (c *ClusterClient) Epoch() uint64 {
	if m := c.view.Membership(); m != nil {
		return m.Epoch
	}
	return 0
}

// Watch follows the persisted membership record until ctx ends, adopting
// each newer epoch (and invalidating the attached record cache when one
// lands). Run it in its own goroutine alongside the client.
func (c *ClusterClient) Watch(ctx context.Context) { c.view.Watch(ctx) }

func (c *ClusterClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// CreateGroup runs Algorithm 1 for a fresh group on the owning shard.
func (c *ClusterClient) CreateGroup(ctx context.Context, group string, members []string) error {
	return c.do(ctx, group, "create", adminOpRequest{Group: group, Members: members})
}

// AddUser adds one user (Algorithm 2).
func (c *ClusterClient) AddUser(ctx context.Context, group, user string) error {
	return c.do(ctx, group, "add", adminOpRequest{Group: group, User: user})
}

// RemoveUser revokes one user (Algorithm 3).
func (c *ClusterClient) RemoveUser(ctx context.Context, group, user string) error {
	return c.do(ctx, group, "remove", adminOpRequest{Group: group, User: user})
}

// AddUsers adds a batch of users with one ciphertext extension per touched
// partition.
func (c *ClusterClient) AddUsers(ctx context.Context, group string, users []string) error {
	return c.do(ctx, group, "add-batch", adminOpRequest{Group: group, Users: users})
}

// RemoveUsers revokes a batch of users under a single fresh group key.
func (c *ClusterClient) RemoveUsers(ctx context.Context, group string, users []string) error {
	return c.do(ctx, group, "remove-batch", adminOpRequest{Group: group, Users: users})
}

// RekeyGroup rotates the group key without membership changes.
func (c *ClusterClient) RekeyGroup(ctx context.Context, group string) error {
	return c.do(ctx, group, "rekey", adminOpRequest{Group: group})
}

// do routes one admin operation: the view's sweep over the group's owner
// candidates, then one pass through the fallback router when the sweep
// found no route.
func (c *ClusterClient) do(ctx context.Context, group, op string, body adminOpRequest) error {
	pace := membership.Pace{RouteTimeout: c.RouteTimeout, RetryInterval: c.RetryInterval}
	err := c.view.Sweep(ctx, group, pace, func(ctx context.Context, cand membership.Candidate) (membership.Verdict, error) {
		err := postAdminOp(ctx, c.httpClient(), cand.URL, op, body)
		v := verdictOf(err)
		if v == membership.Fenced {
			c.fencedRefreshes.Add(1)
			incr(c.mFenced)
		}
		return v, err
	})
	if err == nil {
		c.noteRoute(&c.direct, "direct")
		return nil
	}
	if c.Fallback == "" || !errors.Is(err, membership.ErrNoRoute) {
		return err
	}
	if err := postAdminOp(ctx, c.httpClient(), c.Fallback, op, body); err != nil {
		return err
	}
	c.noteRoute(&c.proxied, "proxied")
	return nil
}

// verdictOf classifies a shard's answer for the sweep.
func verdictOf(err error) membership.Verdict {
	var apiErr *APIError
	switch {
	case err == nil:
		return membership.Served
	case !errors.As(err, &apiErr):
		return membership.Unreachable
	case apiErr.Fenced || errors.Is(err, ErrFencedEpoch):
		// The shard answered from a superseded epoch: our record (or its)
		// is stale.
		return membership.Fenced
	case errors.Is(err, ErrNotOwner) || apiErr.StatusCode == http.StatusServiceUnavailable:
		return membership.NotOwner // lease handed off or shard draining
	default:
		return membership.Served // a real admin failure; rerouting won't change it
	}
}

func (c *ClusterClient) noteRoute(counter *atomic.Int64, route string) {
	counter.Add(1)
	if c.mRoutes != nil {
		c.mRoutes.With(route).Inc()
	}
}
