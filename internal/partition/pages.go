package partition

import (
	"container/list"
	"fmt"
	"sync/atomic"
)

// Page is one resident partition: the member slice in record order plus an
// opaque payload (internal/core stores the partition's broadcast ciphertext
// there). Pages are the evictable part of group state — any page can be
// dropped and rebuilt from its PartitionRecord via a PageSource.
type Page struct {
	ID      string
	Members []string
	Payload any
}

// PageSource rehydrates an evicted page from durable storage. internal/admin
// installs a store-backed source after a group is persisted; until then the
// cache refuses to evict (there would be nowhere to reload from).
type PageSource interface {
	LoadPage(id string) (*Page, error)
}

// Pages is an LRU cache of resident partition pages with pin semantics.
// Get hydrates a page and pins it while the work that needs it runs;
// ReleasePins ends that work, so eviction never drops a page from under it.
// Put installs a computed page unpinned, and Read serves a page without
// changing the cache at all. internal/core keeps the one pin rule: a page is
// pinned only while the compute chunk that hydrated it runs, and a chunk is
// never larger than the limit, so the cache never grows past it.
//
// Not safe for concurrent use; the owning group's lock serialises access.
type Pages struct {
	limit  int // max resident pages; <=0 means unlimited
	src    PageSource
	ll     *list.List // front = most recently used; values are *Page
	ent    map[string]*list.Element
	pinned map[string]bool

	// resident and evictions mirror the cache size and displacement count
	// atomically so metric scrapes can read them without the group lock.
	resident  atomic.Int64
	evictions atomic.Uint64
	highWater int // max resident seen since last ResetHighWater
}

// NewPages creates a page cache. limit <= 0 disables eviction; src may be
// nil (eviction also stays disabled until a source is installed).
func NewPages(limit int, src PageSource) *Pages {
	return &Pages{
		limit:  limit,
		src:    src,
		ll:     list.New(),
		ent:    make(map[string]*list.Element),
		pinned: make(map[string]bool),
	}
}

// Get returns the page, hydrating it through the source on a miss. The page
// is pinned until ReleasePins.
func (c *Pages) Get(id string) (*Page, error) {
	if e, ok := c.ent[id]; ok {
		c.ll.MoveToFront(e)
		c.pinned[id] = true
		return e.Value.(*Page), nil
	}
	p, err := c.load(id)
	if err != nil {
		return nil, err
	}
	c.insert(p, true)
	return p, nil
}

// Read returns the page without changing the cache: a resident page as it
// is, any other straight from the source, not kept. Nothing is pinned,
// inserted or evicted, so a read never displaces an operation's pages.
func (c *Pages) Read(id string) (*Page, error) {
	if p, ok := c.Peek(id); ok {
		return p, nil
	}
	return c.load(id)
}

func (c *Pages) load(id string) (*Page, error) {
	if c.src == nil {
		return nil, fmt.Errorf("partition: page %s not resident and no page source", id)
	}
	p, err := c.src.LoadPage(id)
	if err != nil {
		return nil, fmt.Errorf("partition: load page %s: %w", id, err)
	}
	return p, nil
}

// Peek returns the page only if it is already resident, without pinning.
func (c *Pages) Peek(id string) (*Page, bool) {
	e, ok := c.ent[id]
	if !ok {
		return nil, false
	}
	return e.Value.(*Page), true
}

// Put inserts or replaces the page, unpinned: it is a page an operation
// computed and does not read again.
func (c *Pages) Put(p *Page) {
	if e, ok := c.ent[p.ID]; ok {
		e.Value = p
		c.ll.MoveToFront(e)
		return
	}
	c.insert(p, false)
}

func (c *Pages) insert(p *Page, pin bool) {
	c.ent[p.ID] = c.ll.PushFront(p)
	if pin {
		c.pinned[p.ID] = true
	}
	// Evict before accounting the high-water mark: a full cache momentarily
	// holds limit+1 entries between the insert and the displacement, which
	// is not real residency.
	c.evict()
	c.resident.Store(int64(c.ll.Len()))
	if n := c.ll.Len(); n > c.highWater {
		c.highWater = n
	}
}

// ReleasePins unpins every page; the work that needed them is over.
// Trims back to the limit in case pins forced the cache over it.
func (c *Pages) ReleasePins() {
	c.pinned = make(map[string]bool)
	c.evict()
	c.resident.Store(int64(c.ll.Len()))
}

// Drop removes the page from the cache without counting an eviction (the
// partition itself was deleted, not displaced).
func (c *Pages) Drop(id string) {
	if e, ok := c.ent[id]; ok {
		c.ll.Remove(e)
		delete(c.ent, id)
		delete(c.pinned, id)
		c.resident.Store(int64(c.ll.Len()))
	}
}

// SetSource installs (or replaces) the rehydration source and trims any
// over-limit residency accumulated while eviction was disabled.
func (c *Pages) SetSource(src PageSource) {
	c.src = src
	c.evict()
	c.resident.Store(int64(c.ll.Len()))
}

// HasSource reports whether a rehydration source is installed (i.e. whether
// the cache may evict).
func (c *Pages) HasSource() bool { return c.src != nil }

// Limit returns the residency bound (<=0 means unlimited).
func (c *Pages) Limit() int { return c.limit }

// Resident returns the number of pages currently in the cache. Unlike the
// other accessors it is safe to call concurrently with cache mutations (it
// reads an atomic mirror), so metric scrapes need not take the group lock.
func (c *Pages) Resident() int { return int(c.resident.Load()) }

// HighWater returns the peak residency since the last ResetHighWater.
func (c *Pages) HighWater() int { return c.highWater }

// ResetHighWater restarts the peak-residency measurement at the current
// residency.
func (c *Pages) ResetHighWater() { c.highWater = c.ll.Len() }

// Evictions returns the number of pages displaced by the LRU policy. Safe
// to call concurrently with cache mutations, like Resident.
func (c *Pages) Evictions() uint64 { return c.evictions.Load() }

// evict displaces least-recently-used unpinned pages until the cache fits
// the limit. With no source installed nothing is evicted — a dropped page
// could never come back. If every page is pinned the cache grows past the
// limit; ReleasePins trims it afterwards.
func (c *Pages) evict() {
	if c.limit <= 0 || c.src == nil {
		return
	}
	for c.ll.Len() > c.limit {
		e := c.ll.Back()
		for e != nil && c.pinned[e.Value.(*Page).ID] {
			e = e.Prev()
		}
		if e == nil {
			return // all pinned
		}
		p := e.Value.(*Page)
		c.ll.Remove(e)
		delete(c.ent, p.ID)
		c.evictions.Add(1)
	}
}
