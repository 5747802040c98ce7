package client

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// RecordCache is a version-keyed read cache over a Store's object GETs,
// built for the paper's read-dominated workload: many clients re-deriving
// group keys from records that change only on membership events.
//
// Keys are (dir, name, directory version). Correctness rides on the store's
// monotone per-directory CAS versions, not on clocks: a cached record is
// served only while its version is no older than the newest version the
// cache has *observed* for that directory (from a fetch, a long-poll, or a
// membership epoch bump) — so staleness is bounded by the same signal the
// rest of the system already trusts, and there are no TTLs to tune.
//
// Concurrent misses for the same object collapse into one upstream GET
// (singleflight): a flash crowd of N readers waking on one version bump
// costs the cloud one round trip, not N. When a prior version of the object
// is cached, the refetch is a conditional GET (?if-version / 304 over
// HTTP), so an unchanged record costs headers, not payload.
type RecordCache struct {
	store storage.Store

	mu      sync.Mutex
	entries map[cacheKey]cacheEntry
	latest  map[string]uint64 // newest observed version per directory
	flights map[cacheKey]*flight

	hits          atomic.Int64
	misses        atomic.Int64
	collapsed     atomic.Int64
	revalidations atomic.Int64
	evictions     atomic.Int64

	mHits, mMisses, mCollapsed, mReval, mEvict *obs.Counter
}

type cacheKey struct{ dir, name string }

type cacheEntry struct {
	version uint64
	data    []byte
}

// flight is one in-progress upstream fetch; late readers wanting the same
// (key, target version) wait on done instead of dialing the store.
type flight struct {
	want    uint64 // latest known version when the flight launched
	done    chan struct{}
	data    []byte
	version uint64
	err     error
}

// NewRecordCache builds a cache over the given store.
func NewRecordCache(store storage.Store) *RecordCache {
	return &RecordCache{
		store:   store,
		entries: make(map[cacheKey]cacheEntry),
		latest:  make(map[string]uint64),
		flights: make(map[cacheKey]*flight),
	}
}

// Instrument registers the cache's counters with the registry. Call before
// serving traffic; a nil registry is a no-op.
func (r *RecordCache) Instrument(reg *obs.Registry) *RecordCache {
	if reg == nil {
		return r
	}
	r.mHits = reg.Counter("ibbe_client_cache_hits_total", "Record-cache reads served without any store round trip.")
	r.mMisses = reg.Counter("ibbe_client_cache_misses_total", "Record-cache reads that went upstream (leader of a fetch).")
	r.mCollapsed = reg.Counter("ibbe_client_cache_collapsed_total", "Record-cache reads that joined an in-flight fetch instead of dialing the store.")
	r.mReval = reg.Counter("ibbe_client_cache_revalidations_total", "Conditional refetches answered not-modified (no payload transferred).")
	r.mEvict = reg.Counter("ibbe_client_cache_evictions_total", "Cached records dropped by version or epoch invalidation.")
	return r
}

func incr(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Collapsed     int64
	Revalidations int64
	Evictions     int64
}

// Stats returns a snapshot of the counters.
func (r *RecordCache) Stats() CacheStats {
	return CacheStats{
		Hits:          r.hits.Load(),
		Misses:        r.misses.Load(),
		Collapsed:     r.collapsed.Load(),
		Revalidations: r.revalidations.Load(),
		Evictions:     r.evictions.Load(),
	}
}

// Get returns the object's bytes and the directory version they belong to.
// A read is served from memory when the cached version is current against
// everything observed for the directory; otherwise it fetches (or joins the
// fetch already in flight). The returned slice is shared — callers must not
// mutate it.
func (r *RecordCache) Get(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	k := cacheKey{dir, name}
	r.mu.Lock()
	lat := r.latest[dir]
	if e, ok := r.entries[k]; ok && lat != 0 && e.version >= lat {
		r.mu.Unlock()
		r.hits.Add(1)
		incr(r.mHits)
		return e.data, e.version, nil
	}
	if f, ok := r.flights[k]; ok && f.want == lat {
		r.mu.Unlock()
		r.collapsed.Add(1)
		incr(r.mCollapsed)
		select {
		case <-f.done:
			return f.data, f.version, f.err
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	// Become the flight leader for this (key, version) generation.
	f := &flight{want: lat, done: make(chan struct{})}
	r.flights[k] = f
	prev, hadPrev := r.entries[k]
	r.mu.Unlock()

	r.misses.Add(1)
	incr(r.mMisses)
	var data []byte
	var ver uint64
	var err error
	if hadPrev {
		// Revalidate: if the store still holds our version, 304 — keep the
		// cached bytes and just learn that they are current.
		data, ver, err = storage.GetVersionedIf(ctx, r.store, dir, name, prev.version)
		if errors.Is(err, storage.ErrNotModified) {
			r.revalidations.Add(1)
			incr(r.mReval)
			data, err = prev.data, nil
		}
	} else {
		data, ver, err = r.store.GetVersioned(ctx, dir, name)
	}

	r.mu.Lock()
	if err == nil {
		r.entries[k] = cacheEntry{version: ver, data: data}
		if ver > r.latest[dir] {
			r.latest[dir] = ver
		}
	}
	if r.flights[k] == f {
		delete(r.flights, k)
	}
	r.mu.Unlock()
	f.data, f.version, f.err = data, ver, err
	close(f.done)
	return data, ver, err
}

// ObserveVersion records that dir has reached at least version v (fed by
// the long-poll loop every client already runs). Cached entries older than
// v stop being served and revalidate on next read.
func (r *RecordCache) ObserveVersion(dir string, v uint64) {
	r.mu.Lock()
	if v > r.latest[dir] {
		r.latest[dir] = v
	}
	r.mu.Unlock()
}

// InvalidateAll drops every cached object — the membership-epoch-bump hook:
// after a rebalance, ownership and record layout may have changed wholesale.
func (r *RecordCache) InvalidateAll() {
	r.mu.Lock()
	n := int64(len(r.entries))
	r.entries = make(map[cacheKey]cacheEntry)
	r.mu.Unlock()
	r.noteEvictions(n)
}

func (r *RecordCache) noteEvictions(n int64) {
	if n == 0 {
		return
	}
	r.evictions.Add(n)
	if r.mEvict != nil {
		r.mEvict.Add(n)
	}
}
