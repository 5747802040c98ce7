package partition

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// Names of the reserved objects this package encodes. Partition objects are
// named by their partition ID (pNNNNNN); everything else in a group directory
// starts with "_".
const (
	// HeaderObject holds Index.Marshal: the one object every operation
	// rewrites and every reader starts from.
	HeaderObject = "_member_index"
	bucketPrefix = "_dir_"
)

// BucketObject names the store object of directory bucket i.
func BucketObject(i int) string { return fmt.Sprintf("%s%06d", bucketPrefix, i) }

// BucketOf returns the directory bucket a member name hashes to under the
// given fan-out: 64-bit FNV-1a, so every process — administrator, standby,
// client — agrees on it.
func BucketOf(user string, fanout int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(user); i++ {
		h = (h ^ uint64(user[i])) * 1099511628211
	}
	return int(h % uint64(fanout))
}

// maxFanout bounds a decoded fan-out so that doubling it cannot overflow.
const maxFanout = 1 << 30

// BucketFetch loads one directory bucket object from durable storage by its
// object name. The administrator installs a store-backed fetch on an index it
// decoded from the store.
type BucketFetch func(object string) ([]byte, error)

// Index is the resident part of a group's state, and what the group header
// object persists: capacity, the partition-ID counter, the directory fan-out
// and per partition its member count, wrapped group key yᵢ and sealed re-wrap
// handle — O(partitions), no member names.
//
// The member → partition bindings live in a hashed directory of buckets
// (about capacity names each) that the index loads through a BucketFetch the
// first time an operation needs one and keeps resident afterwards. An index
// without a fetch is its own directory: a bucket it does not hold is empty.
// Buckets an operation changed are tracked until TakeDirty hands them out
// for persisting.
//
// Both halves are kept in the order their encodings list them — partitions
// ascending by number, each bucket's bindings ascending by name — so
// encoding one walks a slice, with no sort and no per-name hashing.
//
// An Index is not safe for concurrent use; internal/core serialises access
// per group.
type Index struct {
	capacity int
	nextID   int
	members  int
	pages    map[string]*pageInfo
	order    []*pageInfo // every partition, ascending by number: the header's order
	open     []string    // page IDs with spare capacity, O(1) uniform pick
	openPos  map[string]int

	fanout  int
	buckets map[int]*dirBucket // resident buckets
	fetch   BucketFetch
	dirty   map[int]bool
}

type pageInfo struct {
	id      string
	num     int // the NNNNNN of the page ID
	count   int
	wrapped []byte // yᵢ
	handle  []byte // sealed re-wrap handle
}

// binding is one directory entry: a member and the partition hosting it.
type binding struct {
	member string
	page   *pageInfo
}

// dirBucket is a resident directory bucket: its bindings sorted by member
// name, the order its encoding lists them in. Lookups binary-search it;
// Bind and Unbind insert and delete in place.
type dirBucket struct {
	entries []binding
}

// search returns the position of user in the bucket, or where it would be
// inserted, and whether it is there.
func (b *dirBucket) search(user string) (int, bool) {
	return slices.BinarySearchFunc(b.entries, user, func(e binding, u string) int {
		return strings.Compare(e.member, u)
	})
}

// NewIndex creates an empty index with fixed partition capacity m and a
// directory sized for the given number of members (about m names per bucket).
// Every bucket of the new directory is dirty: an empty one is an object too.
func NewIndex(capacity, members int) (*Index, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadCapacity, capacity)
	}
	ix := &Index{
		capacity: capacity,
		pages:    make(map[string]*pageInfo),
		openPos:  make(map[string]int),
		fanout:   (members + capacity - 1) / capacity,
		buckets:  make(map[int]*dirBucket),
		dirty:    make(map[int]bool),
	}
	if ix.fanout < 1 {
		ix.fanout = 1
	}
	for i := 0; i < ix.fanout; i++ {
		ix.dirty[i] = true
	}
	return ix, nil
}

// Repacked returns an empty index for re-partitioning ix's group into the
// given number of members: same capacity, a fresh directory, and the ID
// counter carried over so old and new partition objects never collide.
func (ix *Index) Repacked(members int) *Index {
	cp, _ := NewIndex(ix.capacity, members) // the capacity was validated when ix was made
	cp.nextID = ix.nextID
	return cp
}

// SetBucketFetch installs the loader for buckets the index does not hold.
func (ix *Index) SetBucketFetch(fetch BucketFetch) { ix.fetch = fetch }

// Capacity returns the fixed partition size m.
func (ix *Index) Capacity() int { return ix.capacity }

// Len returns the number of members in the group.
func (ix *Index) Len() int { return ix.members }

// PageCount returns the number of partitions |P|.
func (ix *Index) PageCount() int { return len(ix.order) }

// Fanout returns the number of directory buckets.
func (ix *Index) Fanout() int { return ix.fanout }

// bucket returns directory bucket i, loading and validating it on first use.
func (ix *Index) bucket(i int) (*dirBucket, error) {
	if b, ok := ix.buckets[i]; ok {
		return b, nil
	}
	b := &dirBucket{}
	if ix.fetch != nil {
		data, err := ix.fetch(BucketObject(i))
		if err != nil {
			return nil, fmt.Errorf("partition: loading %s: %w", BucketObject(i), err)
		}
		entries, err := UnmarshalBucket(data, ix.fanout, i)
		if err != nil {
			return nil, err
		}
		b.entries = make([]binding, len(entries))
		bound := make(map[*pageInfo]int)
		for j, e := range entries {
			pi := ix.pages[e.Page]
			if pi == nil || bound[pi] >= pi.count {
				return nil, fmt.Errorf("%w: %s binds more members to %s than the header counts", ErrBadDirectory, BucketObject(i), e.Page)
			}
			bound[pi]++
			b.entries[j] = binding{e.Member, pi}
		}
	}
	ix.buckets[i] = b
	return b, nil
}

// LoadAll makes every bucket resident — what a full member listing, a
// re-partition and a directory resize need.
func (ix *Index) LoadAll() error {
	for i := 0; i < ix.fanout; i++ {
		if _, err := ix.bucket(i); err != nil {
			return err
		}
	}
	return nil
}

// PageOf returns the ID of the partition hosting user.
func (ix *Index) PageOf(user string) (string, bool, error) {
	b, err := ix.bucket(BucketOf(user, ix.fanout))
	if err != nil {
		return "", false, err
	}
	j, ok := b.search(user)
	if !ok {
		return "", false, nil
	}
	return b.entries[j].page.id, true, nil
}

// Contains reports whether user is in the group.
func (ix *Index) Contains(user string) (bool, error) {
	_, ok, err := ix.PageOf(user)
	return ok, err
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

// Envelope returns the partition's wrapped group key yᵢ and sealed re-wrap
// handle (nil for an unknown partition). The slices are the index's own.
func (ix *Index) Envelope(id string) (wrapped, handle []byte) {
	if pi, ok := ix.pages[id]; ok {
		return pi.wrapped, pi.handle
	}
	return nil, nil
}

// SetEnvelope records the partition's wrapped group key and re-wrap handle.
// The index keeps the slices; callers hand over ones nothing else mutates.
func (ix *Index) SetEnvelope(id string, wrapped, handle []byte) {
	if pi, ok := ix.pages[id]; ok {
		pi.wrapped, pi.handle = wrapped, handle
	}
}

// PageIDs returns all partition IDs in allocation order.
func (ix *Index) PageIDs() []string {
	out := make([]string, len(ix.order))
	for i, pi := range ix.order {
		out[i] = pi.id
	}
	return out
}

// PageEntry is one partition's line of the group header.
type PageEntry struct {
	ID              string
	Count           int
	Wrapped, Handle []byte // the index's own slices, as Envelope returns them
}

// Entries yields every partition's header line in allocation order — the
// header's own order — straight off the index, with no copy of the ID list
// and no lookup per partition. The index must not change during the walk.
func (ix *Index) Entries() iter.Seq[PageEntry] {
	return func(yield func(PageEntry) bool) {
		for _, pi := range ix.order {
			if !yield(PageEntry{ID: pi.id, Count: pi.count, Wrapped: pi.wrapped, Handle: pi.handle}) {
				return
			}
		}
	}
}

// pageID formats partition number num as "p" and at least six digits,
// zero-padded: fmt's "p%06d" without fmt, since decoding a header makes one
// per partition.
func pageID(num int) string {
	var buf [24]byte
	b := append(buf[:0], 'p')
	for n := 100000; n > 1 && num < n; n /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(num), 10))
}

// addPage registers partition num (above every registered one) with count
// members, open when it has room.
func (ix *Index) addPage(num, count int) *pageInfo {
	pi := &pageInfo{id: pageID(num), num: num, count: count}
	ix.pages[pi.id] = pi
	ix.order = append(ix.order, pi)
	ix.members += count
	if count < ix.capacity {
		ix.markOpen(pi.id)
	}
	return pi
}

// NewPage allocates the next partition ID and registers an empty open page.
func (ix *Index) NewPage() string {
	ix.nextID++
	return ix.addPage(ix.nextID, 0).id
}

// Bind places user into the given partition, enforcing uniqueness (against
// the user's directory bucket) and the capacity bound.
func (ix *Index) Bind(id, user string) error {
	i := BucketOf(user, ix.fanout)
	b, err := ix.bucket(i)
	if err != nil {
		return err
	}
	j, found := b.search(user)
	if found {
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
	ix.members++
	b.entries = slices.Insert(b.entries, j, binding{user, pi})
	ix.dirty[i] = true
	if pi.count >= ix.capacity {
		ix.markFull(id)
	}
	return nil
}

// Unbind removes user from her hosting partition and returns its ID. A
// partition emptied by Unbind stays registered (with count 0) until the
// caller confirms the removal and calls DropPage.
func (ix *Index) Unbind(user string) (string, error) {
	i := BucketOf(user, ix.fanout)
	b, err := ix.bucket(i)
	if err != nil {
		return "", err
	}
	j, ok := b.search(user)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoSuchMember, user)
	}
	pi := b.entries[j].page
	b.entries = slices.Delete(b.entries, j, j+1)
	ix.dirty[i] = true
	if pi.count == ix.capacity {
		ix.markOpen(pi.id)
	}
	pi.count--
	ix.members--
	return pi.id, nil
}

// DropPage removes the partition from the index. Any members still bound to
// it are left dangling; callers drop only emptied pages.
func (ix *Index) DropPage(id string) {
	if pi, ok := ix.pages[id]; ok {
		delete(ix.pages, id)
		ix.order = slices.DeleteFunc(ix.order, func(p *pageInfo) bool { return p == pi })
	}
	ix.markFull(id)
}

// Open reports whether partition id is registered and has spare capacity.
func (ix *Index) Open(id string) bool {
	_, ok := ix.openPos[id]
	return ok
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
	if len(ix.order) <= 1 {
		return false
	}
	threshold := (2*ix.capacity + 2) / 3 // ⌈2m/3⌉
	wellFilled := 0
	for _, pi := range ix.order {
		if pi.count >= threshold {
			wellFilled++
		}
	}
	return 2*wellFilled < len(ix.order)
}

// Occupancy returns the mean fill ratio across partitions (0 when empty).
func (ix *Index) Occupancy() float64 {
	if len(ix.order) == 0 {
		return 0
	}
	return float64(ix.members) / float64(len(ix.order)*ix.capacity)
}

// NeedsGrow reports whether the directory holds more than twice the names it
// was sized for — the load factor at which Grow doubles it.
func (ix *Index) NeedsGrow() bool { return ix.members > 2*ix.capacity*ix.fanout }

// Grow doubles the fan-out and re-buckets every name, a hash-table resize:
// O(group) once per doubling of the group, every bucket dirty afterwards.
// Every bucket must be resident (LoadAll). A name in bucket i hashes to
// bucket i or i + fanout of the doubled directory, so splitting each sorted
// bucket in order leaves both halves sorted.
func (ix *Index) Grow() {
	fanout := 2 * ix.fanout
	grown := make(map[int]*dirBucket, fanout)
	ix.dirty = make(map[int]bool, fanout)
	for i := 0; i < fanout; i++ {
		grown[i] = &dirBucket{}
		ix.dirty[i] = true
	}
	for _, b := range ix.buckets {
		for _, e := range b.entries {
			nb := grown[BucketOf(e.member, fanout)]
			nb.entries = append(nb.entries, e)
		}
	}
	ix.fanout, ix.buckets = fanout, grown
}

// TakeDirty returns the encoding of every bucket changed since the last
// call, keyed by object name, and marks them clean.
func (ix *Index) TakeDirty() map[string][]byte {
	out := make(map[string][]byte, len(ix.dirty))
	for i := range ix.dirty {
		out[BucketObject(i)] = ix.marshalBucket(i)
	}
	ix.ClearDirty()
	return out
}

// ClearDirty marks every bucket clean — for a caller that has undone the
// bindings that dirtied them.
func (ix *Index) ClearDirty() { ix.dirty = make(map[int]bool) }

// Members returns all group members in sorted order, loading every bucket.
// O(n log n); callers listing large groups should page with MembersAfter.
func (ix *Index) Members() ([]string, error) {
	if err := ix.LoadAll(); err != nil {
		return nil, err
	}
	out := make([]string, 0, ix.members)
	for _, b := range ix.buckets {
		for _, e := range b.entries {
			out = append(out, e.member)
		}
	}
	slices.Sort(out)
	return out, nil
}

// MembersAfter returns up to limit members strictly greater than after, in
// sorted order — the cursor behind the paged /admin/members listing. Each
// call is O(n log n) over the directory, which it makes resident; no
// partition page is hydrated.
func (ix *Index) MembersAfter(after string, limit int) ([]string, error) {
	if limit <= 0 {
		return nil, nil
	}
	if err := ix.LoadAll(); err != nil {
		return nil, err
	}
	out := make([]string, 0, limit)
	for _, b := range ix.buckets {
		j, found := b.search(after)
		if found {
			j++
		}
		for _, e := range b.entries[j:] {
			out = append(out, e.member)
		}
	}
	slices.Sort(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
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
