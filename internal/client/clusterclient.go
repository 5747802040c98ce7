package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// Typed admin-API failures, decoded from the service's error envelope.
// Branch with errors.Is; the full detail (op, HTTP status, server epoch,
// message) is on the wrapping *APIError via errors.As.
var (
	// ErrFencedEpoch: the serving process operated under a superseded
	// membership epoch and the store fenced its write. The cluster is
	// mid-reconfiguration — re-resolve the owner and retry.
	ErrFencedEpoch = errors.New("client: admin operates under a fenced (superseded) membership epoch")
	// ErrNotOwner: the addressed shard does not own the group's lease
	// (hand-off in progress or routing staleness). Retry after a beat.
	ErrNotOwner = errors.New("client: addressed shard does not own the group")
)

// APIError is a non-2xx admin-API response. Code and Epoch are populated
// when the service answered with the typed JSON envelope (admin.Envelope),
// as shards and the cluster router do; a plain-text error body (a proxy in
// between) leaves Code empty and carries the body in Msg, so the error is
// useful either way.
type APIError struct {
	Op         string // admin operation ("create", "add-batch", …)
	StatusCode int    // HTTP status
	Code       string // envelope error code ("fenced_epoch", …), "" if untyped
	Epoch      uint64 // serving process's membership epoch, 0 if untyped
	Msg        string // human-readable server message
	// Fenced reports the X-Fenced response header: the failure traces back
	// to an epoch-fenced store write, so the caller's membership view is
	// stale — refresh the record and re-route rather than retry in place.
	Fenced bool
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: admin %s failed: %d %s (epoch %d): %s", e.Op, e.StatusCode, e.Code, e.Epoch, e.Msg)
	}
	return fmt.Sprintf("client: admin %s failed: %d: %s", e.Op, e.StatusCode, e.Msg)
}

// Unwrap maps envelope codes to the package's sentinel errors.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case admin.CodeFencedEpoch:
		return ErrFencedEpoch
	case admin.CodeNotOwner:
		return ErrNotOwner
	default:
		return nil
	}
}

// ClusterClient is the admin client: it follows the same persisted
// membership record the shards coordinate through and sends admin
// operations straight to the group's owning shard — no routing gateway on
// the path. Owner resolution, failover and fenced-epoch recovery are the
// routing view's ring-order sweep (membership.View.Sweep); when the sweep
// finds no route, the operation falls back to the router, if one is
// configured. Built with a nil store, it has no record to route by and
// sends every operation through the router (a cluster's gateway, or one
// shard), counted as proxied.
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
	return c.do(ctx, "create", admin.OpRequest{Group: group, Members: members})
}

// AddUser adds one user (Algorithm 2): a batch of one.
func (c *ClusterClient) AddUser(ctx context.Context, group, user string) error {
	return c.AddUsers(ctx, group, []string{user})
}

// RemoveUser revokes one user (Algorithm 3): a batch of one.
func (c *ClusterClient) RemoveUser(ctx context.Context, group, user string) error {
	return c.RemoveUsers(ctx, group, []string{user})
}

// AddUsers adds a batch of users with one ciphertext extension per touched
// partition.
func (c *ClusterClient) AddUsers(ctx context.Context, group string, users []string) error {
	return c.do(ctx, "add-batch", admin.OpRequest{Group: group, Users: users})
}

// RemoveUsers revokes a batch of users under a single fresh group key.
func (c *ClusterClient) RemoveUsers(ctx context.Context, group string, users []string) error {
	return c.do(ctx, "remove-batch", admin.OpRequest{Group: group, Users: users})
}

// RekeyGroup rotates the group key without membership changes.
func (c *ClusterClient) RekeyGroup(ctx context.Context, group string) error {
	return c.do(ctx, "rekey", admin.OpRequest{Group: group})
}

// do routes one admin operation: the view's sweep over the group's owner
// candidates, then one pass through the fallback router when the sweep
// found no route.
func (c *ClusterClient) do(ctx context.Context, op string, body admin.OpRequest) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	pace := membership.Pace{RouteTimeout: c.RouteTimeout, RetryInterval: c.RetryInterval}
	err = c.view.Sweep(ctx, body.Group, pace, func(ctx context.Context, cand membership.Candidate) (membership.Verdict, error) {
		err := c.post(ctx, cand.URL, op, blob)
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
	if err := c.post(ctx, c.Fallback, op, blob); err != nil {
		return err
	}
	c.noteRoute(&c.proxied, "proxied")
	return nil
}

// post sends one encoded admin operation to a shard or router and maps a
// non-2xx answer to an *APIError.
func (c *ClusterClient) post(ctx context.Context, baseURL, op string, blob []byte) error {
	url := strings.TrimRight(baseURL, "/") + "/admin/" + op
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 300 {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	apiErr := &APIError{
		Op:         op,
		StatusCode: resp.StatusCode,
		Msg:        strings.TrimSpace(string(msg)),
		Fenced:     resp.Header.Get(storage.FencedHeader) != "",
	}
	var env admin.Envelope
	if json.Unmarshal(msg, &env) == nil && env.Error != nil {
		apiErr.Code, apiErr.Epoch, apiErr.Msg = env.Error.Code, env.Epoch, env.Error.Msg
	}
	return apiErr
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
