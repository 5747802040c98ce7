package partition

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// Index is the compact half of the split Table: the member→partition mapping
// plus per-partition occupancy, with no member payloads or ciphertexts. It is
// the only piece of group state that must stay fully resident — everything
// else (member slices, broadcast ciphertexts) lives in evictable Pages. Its
// size is O(members) map entries + O(partitions) counters, versus the O(group
// × record) footprint of a fully materialised table.
//
// Like Table, an Index is not safe for concurrent use; internal/core
// serialises access per group.
type Index struct {
	capacity int
	member   map[string]string // member → page ID
	pages    map[string]*pageInfo
	open     []string // page IDs with spare capacity, O(1) uniform pick
	openPos  map[string]int
	nextID   int
}

type pageInfo struct {
	count   int
	wrapLen int // length of the key envelope (wrapped group key + re-wrap handle) in this page's record
}

// NewIndex creates an empty index with fixed partition capacity m.
func NewIndex(capacity int) (*Index, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacity)
	}
	return &Index{
		capacity: capacity,
		member:   make(map[string]string),
		pages:    make(map[string]*pageInfo),
		openPos:  make(map[string]int),
	}, nil
}

// Capacity returns the fixed partition size m.
func (ix *Index) Capacity() int { return ix.capacity }

// Len returns the number of members in the group.
func (ix *Index) Len() int { return len(ix.member) }

// PageCount returns the number of partitions |P|.
func (ix *Index) PageCount() int { return len(ix.pages) }

// Contains reports whether user is in the group.
func (ix *Index) Contains(user string) bool {
	_, ok := ix.member[user]
	return ok
}

// PageOf returns the ID of the partition hosting user.
func (ix *Index) PageOf(user string) (string, bool) {
	id, ok := ix.member[user]
	return id, ok
}

// Count returns the member count of the given partition (0 if unknown).
func (ix *Index) Count(id string) int {
	if pi, ok := ix.pages[id]; ok {
		return pi.count
	}
	return 0
}

// Has reports whether the partition exists in the index.
func (ix *Index) Has(id string) bool {
	_, ok := ix.pages[id]
	return ok
}

// WrapLen returns the recorded key-envelope length for the partition (wrapped
// group key plus re-wrap handle) — enough to answer metadata-size queries
// without hydrating the page.
func (ix *Index) WrapLen(id string) int {
	if pi, ok := ix.pages[id]; ok {
		return pi.wrapLen
	}
	return 0
}

// SetWrapLen records the key-envelope length for the partition.
func (ix *Index) SetWrapLen(id string, n int) {
	if pi, ok := ix.pages[id]; ok {
		pi.wrapLen = n
	}
}

// PageIDs returns all partition IDs in sorted order.
func (ix *Index) PageIDs() []string {
	out := make([]string, 0, len(ix.pages))
	for id := range ix.pages {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// NewPage allocates the next partition ID and registers an empty open page.
func (ix *Index) NewPage() string {
	ix.nextID++
	id := fmt.Sprintf("p%06d", ix.nextID)
	ix.pages[id] = &pageInfo{}
	ix.markOpen(id)
	return id
}

// AddExistingPage registers a previously produced partition (restore path).
// It validates the canonical ID format, capacity bounds and membership
// disjointness, and resumes ID allocation after the highest seen ID.
func (ix *Index) AddExistingPage(id string, members []string) error {
	var n int
	if _, err := fmt.Sscanf(id, "p%06d", &n); err != nil || n < 1 {
		return fmt.Errorf("partition: malformed partition ID %q", id)
	}
	if _, ok := ix.pages[id]; ok {
		return fmt.Errorf("partition: duplicate partition %s", id)
	}
	if len(members) == 0 {
		return fmt.Errorf("partition: empty partition %s", id)
	}
	if len(members) > ix.capacity {
		return fmt.Errorf("%w: %s has %d members", ErrPartitionFull, id, len(members))
	}
	for _, m := range members {
		if ix.Contains(m) {
			return fmt.Errorf("%w: %s", ErrMemberExists, m)
		}
	}
	ix.pages[id] = &pageInfo{count: len(members)}
	for _, m := range members {
		ix.member[m] = id
	}
	if len(members) < ix.capacity {
		ix.markOpen(id)
	}
	if n > ix.nextID {
		ix.nextID = n
	}
	return nil
}

// Bind places user into the given partition, enforcing uniqueness and the
// capacity bound.
func (ix *Index) Bind(id, user string) error {
	if ix.Contains(user) {
		return fmt.Errorf("%w: %s", ErrMemberExists, user)
	}
	pi, ok := ix.pages[id]
	if !ok {
		return fmt.Errorf("partition: no partition %q", id)
	}
	if pi.count >= ix.capacity {
		return fmt.Errorf("%w: %s", ErrPartitionFull, id)
	}
	pi.count++
	ix.member[user] = id
	if pi.count >= ix.capacity {
		ix.markFull(id)
	}
	return nil
}

// Unbind removes user from her hosting partition and returns its ID. A
// partition emptied by Unbind stays registered (with count 0) until the
// caller confirms the removal and calls DropPage.
func (ix *Index) Unbind(user string) (string, error) {
	id, ok := ix.member[user]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoSuchMember, user)
	}
	delete(ix.member, user)
	pi := ix.pages[id]
	if pi.count == ix.capacity {
		ix.markOpen(id)
	}
	pi.count--
	return id, nil
}

// DropPage removes the partition from the index. Any members still bound to
// it are left dangling; callers drop only emptied pages.
func (ix *Index) DropPage(id string) {
	delete(ix.pages, id)
	ix.markFull(id)
}

// PickOpen returns a uniformly random partition with remaining capacity, or
// false when all are full. A nil rng picks deterministically.
func (ix *Index) PickOpen(rng *rand.Rand) (string, bool) {
	if len(ix.open) == 0 {
		return "", false
	}
	i := 0
	if rng != nil {
		i = rng.Intn(len(ix.open))
	}
	return ix.open[i], true
}

// NeedsRepartition implements the paper's low-occupancy heuristic (§V-A):
// re-partition when fewer than half of the partitions are at least
// two-thirds full. Single-partition groups never trigger it.
func (ix *Index) NeedsRepartition() bool {
	if len(ix.pages) <= 1 {
		return false
	}
	threshold := (2*ix.capacity + 2) / 3 // ⌈2m/3⌉
	wellFilled := 0
	for _, pi := range ix.pages {
		if pi.count >= threshold {
			wellFilled++
		}
	}
	return 2*wellFilled < len(ix.pages)
}

// Occupancy returns the mean fill ratio across partitions (0 when empty).
func (ix *Index) Occupancy() float64 {
	if len(ix.pages) == 0 {
		return 0
	}
	return float64(len(ix.member)) / float64(len(ix.pages)*ix.capacity)
}

// Members returns all group members in sorted order. O(n log n); callers
// listing large groups should page with MembersAfter instead.
func (ix *Index) Members() []string {
	out := make([]string, 0, len(ix.member))
	for m := range ix.member {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// MembersAfter returns up to limit members strictly greater than after, in
// sorted order — the cursor behind the paged /admin/members listing. Each
// call is O(n log n) over the resident index, which is the compact part of
// group state; no pages are hydrated.
func (ix *Index) MembersAfter(after string, limit int) []string {
	if limit <= 0 {
		return nil
	}
	out := make([]string, 0, limit)
	for m := range ix.member {
		if m > after {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Clone returns a deep copy of the index (repartitioning keeps one for
// rollback).
func (ix *Index) Clone() *Index {
	cp := &Index{
		capacity: ix.capacity,
		member:   make(map[string]string, len(ix.member)),
		pages:    make(map[string]*pageInfo, len(ix.pages)),
		open:     append([]string(nil), ix.open...),
		openPos:  make(map[string]int, len(ix.openPos)),
		nextID:   ix.nextID,
	}
	for m, pid := range ix.member {
		cp.member[m] = pid
	}
	for id, pi := range ix.pages {
		v := *pi
		cp.pages[id] = &v
	}
	for id, pos := range ix.openPos {
		cp.openPos[id] = pos
	}
	return cp
}

// ResetPages clears all partitions and member bindings while preserving the
// capacity and the ID counter, so post-reset partitions continue the
// numbering sequence (matching Table.Reset semantics: old and new partition
// IDs never collide across a repartition).
func (ix *Index) ResetPages() {
	ix.member = make(map[string]string)
	ix.pages = make(map[string]*pageInfo)
	ix.open = ix.open[:0]
	ix.openPos = make(map[string]int)
}

func (ix *Index) markOpen(id string) {
	if _, ok := ix.openPos[id]; ok {
		return
	}
	ix.openPos[id] = len(ix.open)
	ix.open = append(ix.open, id)
}

func (ix *Index) markFull(id string) {
	pos, ok := ix.openPos[id]
	if !ok {
		return
	}
	last := len(ix.open) - 1
	if pos != last {
		ix.open[pos] = ix.open[last]
		ix.openPos[ix.open[pos]] = pos
	}
	ix.open = ix.open[:last]
	delete(ix.openPos, id)
}

// indexWire is the versioned JSON encoding of an Index, persisted by the
// admin as its own store object so takeover restores in O(index).
type indexWire struct {
	Capacity int            `json:"capacity"`
	NextID   int            `json:"next_id"`
	Pages    []indexPageRec `json:"pages"`
}

type indexPageRec struct {
	ID      string   `json:"id"`
	WrapLen int      `json:"wrap_len,omitempty"`
	Members []string `json:"members"`
}

// Marshal encodes the index deterministically (pages and members sorted).
func (ix *Index) Marshal() ([]byte, error) {
	w := indexWire{Capacity: ix.capacity, NextID: ix.nextID}
	byPage := make(map[string][]string, len(ix.pages))
	for m, pid := range ix.member {
		byPage[pid] = append(byPage[pid], m)
	}
	for _, id := range ix.PageIDs() {
		members := byPage[id]
		sort.Strings(members)
		w.Pages = append(w.Pages, indexPageRec{ID: id, WrapLen: ix.pages[id].wrapLen, Members: members})
	}
	return json.Marshal(w)
}

// UnmarshalIndex rebuilds an index from its Marshal encoding.
func UnmarshalIndex(data []byte) (*Index, error) {
	var w indexWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("partition: decode index: %w", err)
	}
	ix, err := NewIndex(w.Capacity)
	if err != nil {
		return nil, err
	}
	for _, p := range w.Pages {
		if err := ix.AddExistingPage(p.ID, p.Members); err != nil {
			return nil, err
		}
		ix.SetWrapLen(p.ID, p.WrapLen)
	}
	if w.NextID > ix.nextID {
		ix.nextID = w.NextID
	}
	return ix, nil
}
