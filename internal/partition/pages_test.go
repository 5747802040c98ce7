package partition

import (
	"errors"
	"fmt"
	"testing"
)

// mapSource serves pages from a map and counts loads.
type mapSource struct {
	pages map[string]*Page
	loads int
	fail  error
}

func (s *mapSource) LoadPage(id string) (*Page, error) {
	s.loads++
	if s.fail != nil {
		return nil, s.fail
	}
	p, ok := s.pages[id]
	if !ok {
		return nil, fmt.Errorf("no page %s", id)
	}
	return &Page{ID: p.ID, Members: append([]string(nil), p.Members...)}, nil
}

func newMapSource(n int) *mapSource {
	s := &mapSource{pages: make(map[string]*Page)}
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("p%06d", i)
		s.pages[id] = &Page{ID: id, Members: []string{fmt.Sprintf("u%d@x", i)}}
	}
	return s
}

func TestPagesLRUEvictsBeyondLimit(t *testing.T) {
	src := newMapSource(5)
	c := NewPages(2, src)
	for i := 1; i <= 5; i++ {
		if _, err := c.Get(fmt.Sprintf("p%06d", i)); err != nil {
			t.Fatal(err)
		}
		c.ReleasePins()
	}
	if c.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", c.Resident())
	}
	if c.Evictions() != 3 {
		t.Fatalf("evictions = %d, want 3", c.Evictions())
	}
	if c.HighWater() > 3 {
		t.Fatalf("high water = %d with limit 2", c.HighWater())
	}
	// LRU order: p4 and p5 resident, p1 needs a reload.
	if _, ok := c.Peek("p000005"); !ok {
		t.Fatal("most recent page evicted")
	}
	loads := src.loads
	if _, err := c.Get("p000001"); err != nil {
		t.Fatal(err)
	}
	if src.loads != loads+1 {
		t.Fatalf("expected one rehydration load, got %d", src.loads-loads)
	}
}

func TestPagesPinsBlockEviction(t *testing.T) {
	src := newMapSource(6)
	c := NewPages(2, src)
	// One op touches 4 pages: all pinned, cache must grow past the limit
	// rather than drop a page mid-operation.
	for i := 1; i <= 4; i++ {
		if _, err := c.Get(fmt.Sprintf("p%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Resident() != 4 {
		t.Fatalf("resident = %d during pinned op, want 4", c.Resident())
	}
	if c.Evictions() != 0 {
		t.Fatalf("evicted %d pinned pages", c.Evictions())
	}
	// Op ends: pins release and the cache trims back to the limit.
	c.ReleasePins()
	if c.Resident() != 2 {
		t.Fatalf("resident = %d after ReleasePins, want 2", c.Resident())
	}
	if c.HighWater() != 4 {
		t.Fatalf("high water = %d, want 4", c.HighWater())
	}
	c.ResetHighWater()
	if c.HighWater() != 2 {
		t.Fatalf("high water after reset = %d, want 2", c.HighWater())
	}
}

func TestPagesNoSourceNeverEvicts(t *testing.T) {
	c := NewPages(1, nil)
	for i := 1; i <= 3; i++ {
		c.Put(&Page{ID: fmt.Sprintf("p%06d", i)})
	}
	c.ReleasePins()
	// Without a source a dropped page could never come back.
	if c.Resident() != 3 {
		t.Fatalf("resident = %d, want 3 (no source, no eviction)", c.Resident())
	}
	if _, err := c.Get("p000099"); err == nil {
		t.Fatal("miss without source must fail")
	}
	// Installing a source enables eviction and trims immediately.
	c.SetSource(newMapSource(3))
	if c.Resident() != 1 {
		t.Fatalf("resident = %d after SetSource, want 1", c.Resident())
	}
}

func TestPagesDropAndDropAll(t *testing.T) {
	src := newMapSource(3)
	c := NewPages(0, src)
	for i := 1; i <= 3; i++ {
		if _, err := c.Get(fmt.Sprintf("p%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drop("p000002")
	if _, ok := c.Peek("p000002"); ok {
		t.Fatal("dropped page still resident")
	}
	if c.Evictions() != 0 {
		t.Fatal("Drop counted as eviction")
	}
	if c.Resident() != 2 {
		t.Fatalf("resident = %d after Drop, want 2", c.Resident())
	}
	// A dropped page rehydrates like an evicted one (the rollback of a
	// re-keyed page relies on it).
	loads := src.loads
	if _, err := c.Get("p000002"); err != nil || src.loads != loads+1 {
		t.Fatalf("rehydrating a dropped page: err=%v loads=%d", err, src.loads-loads)
	}
}

func TestPagesSourceErrorPropagates(t *testing.T) {
	src := newMapSource(1)
	boom := errors.New("store down")
	c := NewPages(0, src)
	src.fail = boom
	if _, err := c.Get("p000001"); !errors.Is(err, boom) {
		t.Fatalf("source error lost: %v", err)
	}
	src.fail = nil
	if _, err := c.Get("p000001"); err != nil {
		t.Fatalf("recovery after source error: %v", err)
	}
}

func TestPagesReadLeavesCacheAlone(t *testing.T) {
	src := newMapSource(4)
	c := NewPages(2, src)
	for i := 1; i <= 2; i++ {
		if _, err := c.Get(fmt.Sprintf("p%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	c.ReleasePins()
	if _, err := c.Get("p000002"); err != nil { // one pin held across the reads
		t.Fatal(err)
	}
	// A resident page is served from the cache, any other from the source.
	for _, id := range []string{"p000001", "p000003", "p000004"} {
		loads := src.loads
		p, err := c.Read(id)
		if err != nil || p.ID != id {
			t.Fatalf("Read(%s) = %v, %v", id, p, err)
		}
		if _, resident := c.Peek(id); resident == (src.loads != loads) {
			t.Fatalf("Read(%s): resident %v but %d source loads", id, resident, src.loads-loads)
		}
	}
	if c.Resident() != 2 || c.Evictions() != 0 || c.HighWater() != 2 {
		t.Fatalf("reads changed the cache: resident %d, evictions %d, high water %d", c.Resident(), c.Evictions(), c.HighWater())
	}
	if len(c.pinned) != 1 || !c.pinned["p000002"] {
		t.Fatalf("reads changed the pin set: %v", c.pinned)
	}
	if _, ok := c.Peek("p000003"); ok {
		t.Fatal("a page read past the cache was kept")
	}
}
