// The routing view: one process's copy of the persisted membership record
// and the one ring-order sweep every router, direct-routing client and
// cluster follows it with. Whoever needs to know who owns a group — the
// gateway forwarding a request, a client posting straight to a shard, a
// cluster catching up on epochs published elsewhere — holds a View.
package membership

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

const (
	// DefaultHealthTTL bounds how long a sweep trusts a cached "shard is
	// down" verdict before probing the shard again.
	DefaultHealthTTL = 2 * time.Second
	// DefaultRouteTimeout bounds one sweep when Pace leaves it unset.
	DefaultRouteTimeout = 30 * time.Second
	// DefaultRetryInterval separates sweeps when Pace leaves it unset.
	DefaultRetryInterval = 25 * time.Millisecond
	// refreshInterval rate-limits Refresh: a burst of fenced answers costs
	// one store read per window.
	refreshInterval = 250 * time.Millisecond
)

// ErrNoRoute is wrapped by every Sweep that ends without a real answer: no
// membership to route by, or no candidate answered before the deadline.
var ErrNoRoute = errors.New("no shard could serve")

// View is a process's routing view of the cluster: the adopted membership,
// the shard URL map and a short-lived cache of shards found unreachable.
// Safe for concurrent use.
//
// Adoption is epoch-monotone. A newer record replaces the membership and
// clears the health cache; a record at the current epoch only updates URLs
// (a bootstrap record re-published with its targets, a shard restarted on
// a new port); an older one is ignored. A record's URLs override earlier
// ones; a shard a record gives no URL keeps the one it had.
type View struct {
	// OnAdopt, when set before the view is shared, runs after every epoch
	// advance over an earlier membership (not on the first adoption, and not
	// on a URL-only update), outside the view's lock.
	OnAdopt func(*Membership)
	// OnSkip, when set before the view is shared, is told each candidate a
	// sweep skips on a cached down verdict.
	OnSkip func(id string)

	store storage.Store

	mu          sync.Mutex
	m           *Membership
	targets     map[string]string
	downUntil   map[string]time.Time
	lastRefresh time.Time
	// refreshed is closed when the reload of the latest Refresh ends.
	refreshed chan struct{}
}

// NewView returns an empty view following store (nil: a static view that
// never refreshes).
func NewView(store storage.Store) *View {
	return &View{
		store:     store,
		downUntil: make(map[string]time.Time),
	}
}

// Membership returns the adopted membership (nil before any adoption).
func (v *View) Membership() *Membership {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m
}

// Snapshot returns the adopted membership and a copy of the URL map.
func (v *View) Snapshot() (*Membership, map[string]string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m, maps.Clone(v.targets)
}

// Adopt installs m with its URLs under the view's epoch rule.
func (v *View) Adopt(m *Membership, targets map[string]string) {
	v.mu.Lock()
	prev := v.m
	if prev != nil && m.Epoch <= prev.Epoch {
		if m.Epoch == prev.Epoch {
			v.mergeTargets(targets)
		}
		v.mu.Unlock()
		return
	}
	v.m = m
	v.mergeTargets(targets)
	v.downUntil = make(map[string]time.Time)
	hook := v.OnAdopt
	v.mu.Unlock()
	if prev != nil && hook != nil {
		hook(m)
	}
}

// mergeTargets layers record URLs over the current map; a shard whose URL
// changed loses its down verdict. Caller holds v.mu.
func (v *View) mergeTargets(record map[string]string) {
	next := make(map[string]string, len(v.targets)+len(record))
	maps.Copy(next, v.targets)
	maps.Copy(next, record)
	for id, u := range next {
		if v.targets[id] != u {
			delete(v.downUntil, id)
		}
	}
	v.targets = next
}

// adoptRecord adopts a record read from the store; a stale record is
// dropped before its ring is built.
func (v *View) adoptRecord(rec *Record) {
	if cur := v.Membership(); cur != nil && rec.Epoch < cur.Epoch {
		return
	}
	m, err := rec.Membership()
	if err != nil {
		return
	}
	v.Adopt(m, rec.Targets)
}

// Reload reads the record from the store and adopts it.
func (v *View) Reload(ctx context.Context) error {
	if v.store == nil {
		return ErrNoRecord
	}
	rec, _, err := Load(ctx, v.store)
	if err != nil {
		return err
	}
	v.adoptRecord(rec)
	return nil
}

// Refresh is Reload at most once per refreshInterval — the reaction to an
// answer proving the view stale. A call inside the window waits for the
// window's reload if it is still in flight (or for ctx), so whoever shares
// the view — a gateway router and its cluster's shards — sees the record
// that reload read. Errors are dropped: the next sweep or the watch loop
// retries.
func (v *View) Refresh(ctx context.Context) {
	v.mu.Lock()
	if time.Since(v.lastRefresh) < refreshInterval {
		inFlight := v.refreshed
		v.mu.Unlock()
		select {
		case <-inFlight:
		case <-ctx.Done():
		}
		return
	}
	v.lastRefresh = time.Now()
	done := make(chan struct{})
	v.refreshed = done
	v.mu.Unlock()
	defer close(done)
	_ = v.Reload(ctx)
}

// Watch adopts every record the store publishes until ctx ends (returning
// at once when the view has no store).
func (v *View) Watch(ctx context.Context) {
	if v.store != nil {
		Watch(ctx, v.store, v.adoptRecord)
	}
}

// Verdict is a candidate's answer class, as the sweep acts on it.
type Verdict int

const (
	// Served is a real answer — success or a genuine failure: the sweep
	// returns the error try gave with it.
	Served Verdict = iota
	// Unreachable is a transport failure: the shard is cached down and the
	// sweep moves on.
	Unreachable
	// NotOwner is "not the owner (yet)" or 503: the sweep moves on.
	NotOwner
	// Fenced is an answer from a superseded epoch: the view refreshes and
	// sweeps again from the refreshed owner.
	Fenced
)

// Candidate is one shard a sweep tries.
type Candidate struct {
	ID, URL string
	// Preferred marks the first candidate of the sweep (the ring owner); an
	// answer from any other is a failover.
	Preferred bool
}

// Pace bounds a sweep; zero fields take the defaults.
type Pace struct {
	// RouteTimeout bounds the whole sweep (DefaultRouteTimeout).
	RouteTimeout time.Duration
	// RetryInterval separates passes over the candidates
	// (DefaultRetryInterval).
	RetryInterval time.Duration
	// HealthTTL is how long an unreachable shard is skipped
	// (DefaultHealthTTL; negative disables the cache).
	HealthTTL time.Duration
}

func orDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	return d
}

// Sweep tries a group's candidates in ring order — Owners(group), or every
// member for the empty group — until try reports a real answer or the
// pace's RouteTimeout ends. Cached-down shards are skipped unless every
// candidate is down, so a full outage is still probed. After a pass that
// served nothing, or a fenced answer, the view refreshes and the next pass
// starts RetryInterval later from the refreshed owner. A view with no
// membership even after a refresh fails at once.
func (v *View) Sweep(ctx context.Context, group string, pace Pace, try func(context.Context, Candidate) (Verdict, error)) error {
	ctx, cancel := context.WithTimeout(ctx, orDefault(pace.RouteTimeout, DefaultRouteTimeout))
	defer cancel()
	ttl := orDefault(pace.HealthTTL, DefaultHealthTTL)
	var lastErr error
	for {
		candidates, targets := v.candidates(group)
		if candidates == nil {
			v.Refresh(ctx)
			if candidates, targets = v.candidates(group); candidates == nil {
				return fmt.Errorf("%w: no membership record", ErrNoRoute)
			}
		}
		for _, id := range v.live(candidates) {
			url := targets[id]
			if url == "" {
				lastErr = fmt.Errorf("no published target for shard %s", id)
				continue
			}
			verdict, err := try(ctx, Candidate{ID: id, URL: url, Preferred: id == candidates[0]})
			if verdict == Unreachable {
				// Only a genuine transport failure is cached: when OUR deadline
				// (or the caller) aborted the try, the shard's health is unknown.
				if ctx.Err() == nil {
					v.markDown(id, ttl)
				}
			} else {
				v.markUp(id)
			}
			if verdict == Served {
				return err
			}
			lastErr = err
			if verdict == Fenced {
				break
			}
		}
		v.Refresh(ctx)
		t := time.NewTimer(orDefault(pace.RetryInterval, DefaultRetryInterval))
		select {
		case <-ctx.Done():
			t.Stop()
			if lastErr == nil {
				lastErr = ctx.Err()
			}
			return fmt.Errorf("%w: %w", ErrNoRoute, lastErr)
		case <-t.C:
		}
	}
}

// candidates snapshots the group's candidate order (nil before any
// adoption) and the URL map for one pass — re-read per pass, so a
// mid-sweep adoption redirects the next pass.
func (v *View) candidates(group string) ([]string, map[string]string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch {
	case v.m == nil:
		return nil, nil
	case group == "":
		return v.m.Members(), v.targets
	}
	return v.m.Owners(group), v.targets
}

// live drops cached-down candidates, reporting each to OnSkip — unless
// every candidate is down, when all are probed.
func (v *View) live(candidates []string) []string {
	v.mu.Lock()
	now := time.Now()
	live := make([]string, 0, len(candidates))
	var skipped []string
	for _, id := range candidates {
		if until, ok := v.downUntil[id]; ok && now.Before(until) {
			skipped = append(skipped, id)
		} else {
			live = append(live, id)
		}
	}
	v.mu.Unlock()
	if len(live) == 0 {
		return candidates
	}
	if v.OnSkip != nil {
		for _, id := range skipped {
			v.OnSkip(id)
		}
	}
	return live
}

func (v *View) markDown(id string, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	v.mu.Lock()
	v.downUntil[id] = time.Now().Add(ttl)
	v.mu.Unlock()
}

func (v *View) markUp(id string) {
	v.mu.Lock()
	delete(v.downUntil, id)
	v.mu.Unlock()
}
