package partition

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/wire"
)

func TestIndexBindUnbindLifecycle(t *testing.T) {
	ix, err := NewIndex(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1 := ix.NewPage()
	if p1 != "p000001" {
		t.Fatalf("first page = %q", p1)
	}
	if err := ix.Bind(p1, "a@x"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Bind(p1, "a@x"); !errors.Is(err, ErrMemberExists) {
		t.Fatalf("duplicate bind: %v", err)
	}
	if err := ix.Bind(p1, "b@x"); err != nil {
		t.Fatal(err)
	}
	// Page now full: no open page remains.
	if err := ix.Bind(p1, "c@x"); !errors.Is(err, ErrPartitionFull) {
		t.Fatalf("overfull bind: %v", err)
	}
	if _, ok := ix.PickOpen(nil); ok {
		t.Fatal("PickOpen found an open page in a full index")
	}
	if ix.Len() != 2 || ix.PageCount() != 1 {
		t.Fatalf("len=%d pages=%d", ix.Len(), ix.PageCount())
	}
	// Unbind reopens the page.
	id, err := ix.Unbind("a@x")
	if err != nil || id != p1 {
		t.Fatalf("unbind: %q %v", id, err)
	}
	if _, err := ix.Unbind("a@x"); !errors.Is(err, ErrNoSuchMember) {
		t.Fatalf("double unbind: %v", err)
	}
	if open, ok := ix.PickOpen(nil); !ok || open != p1 {
		t.Fatalf("PickOpen after unbind: %q %v", open, ok)
	}
	// Empty the page: it stays registered (count 0) until DropPage.
	if _, err := ix.Unbind("b@x"); err != nil {
		t.Fatal(err)
	}
	if ix.Count(p1) != 0 || !ix.Has(p1) {
		t.Fatalf("emptied page: count=%d has=%v", ix.Count(p1), ix.Has(p1))
	}
	ix.DropPage(p1)
	if ix.Has(p1) || ix.PageCount() != 0 {
		t.Fatal("DropPage left the page registered")
	}
	if _, ok := ix.PickOpen(nil); ok {
		t.Fatal("dropped page still open")
	}
}

func TestIndexPickOpenUniform(t *testing.T) {
	ix, _ := NewIndex(4, 0)
	rng := rand.New(rand.NewSource(7))
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, ix.NewPage())
	}
	// Fill the middle page; picks must cover exactly the two open ones.
	for i := 0; i < 4; i++ {
		if err := ix.Bind(ids[1], fmt.Sprintf("u%d@x", i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]int)
	for i := 0; i < 200; i++ {
		id, ok := ix.PickOpen(rng)
		if !ok {
			t.Fatal("no open page")
		}
		seen[id]++
	}
	if seen[ids[1]] != 0 {
		t.Fatalf("picked the full page %d times", seen[ids[1]])
	}
	if seen[ids[0]] == 0 || seen[ids[2]] == 0 {
		t.Fatalf("picks not covering open pages: %v", seen)
	}
}

// storeOf persists an index the way an update does — header plus dirty
// buckets into a map — and returns the map and a fetch over it that counts
// bucket loads.
func storeOf(ix *Index) (objects map[string][]byte, fetch BucketFetch, loads *int) {
	objects = ix.TakeDirty()
	objects[HeaderObject] = ix.Marshal()
	loads = new(int)
	return objects, func(object string) ([]byte, error) {
		*loads++
		data, ok := objects[object]
		if !ok {
			return nil, fmt.Errorf("no object %s", object)
		}
		return data, nil
	}, loads
}

func TestIndexMarshalRoundTrip(t *testing.T) {
	ix, _ := NewIndex(3, 12)
	for p := 0; p < 4; p++ {
		id := ix.NewPage()
		for u := 0; u < 3-p%2; u++ {
			if err := ix.Bind(id, fmt.Sprintf("u%d-%d@x", p, u)); err != nil {
				t.Fatal(err)
			}
		}
		ix.SetEnvelope(id, []byte(fmt.Sprintf("y-%d", p)), []byte(fmt.Sprintf("handle-%d", p)))
	}
	// Deterministic encoding.
	if string(ix.Marshal()) != string(ix.Marshal()) {
		t.Fatal("Marshal is not deterministic")
	}
	objects, fetch, loads := storeOf(ix)
	if len(objects) != ix.Fanout()+1 {
		t.Fatalf("a new directory of %d buckets persisted %d objects", ix.Fanout(), len(objects))
	}
	got, err := UnmarshalIndex(objects[HeaderObject])
	if err != nil {
		t.Fatal(err)
	}
	got.SetBucketFetch(fetch)
	if got.Len() != ix.Len() || got.PageCount() != ix.PageCount() || got.Capacity() != ix.Capacity() || got.Fanout() != ix.Fanout() {
		t.Fatalf("round trip: len %d/%d pages %d/%d fan-out %d/%d", got.Len(), ix.Len(), got.PageCount(), ix.PageCount(), got.Fanout(), ix.Fanout())
	}
	for _, id := range ix.PageIDs() {
		wantY, wantH := ix.Envelope(id)
		gotY, gotH := got.Envelope(id)
		if got.Count(id) != ix.Count(id) || string(gotY) != string(wantY) || string(gotH) != string(wantH) {
			t.Fatalf("page %s: count %d/%d envelope %q,%q", id, got.Count(id), ix.Count(id), gotY, gotH)
		}
	}
	if *loads != 0 {
		t.Fatalf("decoding the header loaded %d buckets", *loads)
	}
	// A lookup loads the one bucket it needs, once.
	members, _ := ix.Members()
	for i := 0; i < 2; i++ {
		wantPID, _, _ := ix.PageOf(members[0])
		gotPID, ok, err := got.PageOf(members[0])
		if err != nil || !ok || gotPID != wantPID {
			t.Fatalf("member %s: page %q/%q (%v)", members[0], gotPID, wantPID, err)
		}
	}
	if *loads != 1 {
		t.Fatalf("two lookups of one member loaded %d buckets, want 1", *loads)
	}
	for _, m := range members {
		wantPID, _, _ := ix.PageOf(m)
		if gotPID, ok, err := got.PageOf(m); err != nil || !ok || gotPID != wantPID {
			t.Fatalf("member %s: page %q/%q (%v)", m, gotPID, wantPID, err)
		}
	}
	if *loads > got.Fanout() {
		t.Fatalf("%d bucket loads for a directory of %d", *loads, got.Fanout())
	}
	// ID allocation resumes after the highest seen ID.
	if next := got.NewPage(); next != "p000005" {
		t.Fatalf("next page after restore = %q", next)
	}
	if _, err := UnmarshalIndex([]byte("{bogus")); !errors.Is(err, ErrBadDirectory) {
		t.Fatalf("bogus index decoded: %v", err)
	}
}

// TestIndexTracksDirtyBuckets: an operation's binds and unbinds dirty exactly
// the buckets they touch, TakeDirty hands them out once, ClearDirty forgets
// them, and an index decoded from the store starts clean.
func TestIndexTracksDirtyBuckets(t *testing.T) {
	ix := newTable(t, 4, 32) // 8 buckets
	if got := len(ix.TakeDirty()); got != 8 {
		t.Fatalf("a new directory has %d dirty buckets, want all 8", got)
	}
	if got := len(ix.TakeDirty()); got != 0 {
		t.Fatalf("%d buckets still dirty after TakeDirty", got)
	}
	id := ix.NewPage()
	if err := ix.Bind(id, "joiner@x"); err != nil {
		t.Fatal(err)
	}
	dirty := ix.TakeDirty()
	want := BucketObject(BucketOf("joiner@x", 8))
	if len(dirty) != 1 || dirty[want] == nil {
		t.Fatalf("one bind dirtied %d buckets (want only %s)", len(dirty), want)
	}
	entries, err := UnmarshalBucket(dirty[want], 8, BucketOf("joiner@x", 8))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		found = found || (e.Member == "joiner@x" && e.Page == id)
	}
	if !found {
		t.Fatalf("the dirty bucket does not bind the joiner to %s: %v", id, entries)
	}
	if _, err := ix.Unbind("joiner@x"); err != nil {
		t.Fatal(err)
	}
	ix.DropPage(id)
	ix.ClearDirty()
	if got := len(ix.TakeDirty()); got != 0 {
		t.Fatalf("%d buckets dirty after ClearDirty", got)
	}
	restored, err := UnmarshalIndex(ix.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(restored.TakeDirty()); got != 0 {
		t.Fatalf("a decoded index starts with %d dirty buckets", got)
	}
}

// TestIndexGrowDoublesTheDirectory: past twice the names it was sized for the
// directory doubles, every name lands in the bucket the new fan-out hashes it
// to, and every bucket is rewritten.
func TestIndexGrowDoublesTheDirectory(t *testing.T) {
	ix := newTable(t, 2, 2) // fan-out 1
	ix.TakeDirty()
	for i := 0; !ix.NeedsGrow(); i++ {
		id, ok := ix.PickOpen(nil)
		if !ok {
			id = ix.NewPage()
		}
		if err := ix.Bind(id, fmt.Sprintf("g%02d@x", i)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 5 {
		t.Fatalf("a 1-bucket directory of capacity 2 asked to grow at %d names, want 5", ix.Len())
	}
	ix.Grow()
	if ix.Fanout() != 2 || ix.NeedsGrow() {
		t.Fatalf("fan-out after Grow = %d (NeedsGrow %v)", ix.Fanout(), ix.NeedsGrow())
	}
	dirty := ix.TakeDirty()
	if len(dirty) != 2 {
		t.Fatalf("Grow dirtied %d buckets, want both", len(dirty))
	}
	bound := 0
	for i := 0; i < 2; i++ {
		entries, err := UnmarshalBucket(dirty[BucketObject(i)], 2, i)
		if err != nil {
			t.Fatalf("bucket %d after Grow: %v", i, err)
		}
		bound += len(entries)
	}
	if bound != ix.Len() {
		t.Fatalf("the grown directory binds %d names, the group has %d", bound, ix.Len())
	}
	checkInvariants(t, ix)
}

// TestIndexWithoutFetchIsItsOwnDirectory: a header decoded with no fetch
// installed binds and unbinds names it is told of — a bucket it does not
// hold is empty — while its counts still speak for the whole group.
func TestIndexWithoutFetchIsItsOwnDirectory(t *testing.T) {
	ix := newTable(t, 4, 6)
	bare, err := UnmarshalIndex(ix.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	id := bare.NewPage()
	if err := bare.Bind(id, "fresh@x"); err != nil {
		t.Fatal(err)
	}
	if bare.Len() != 7 {
		t.Fatalf("Len = %d, want the header's 6 plus the bind", bare.Len())
	}
	if got, err := bare.Unbind("fresh@x"); err != nil || got != id {
		t.Fatalf("unbind: %q %v", got, err)
	}
}

func TestIndexMembersAfterPagination(t *testing.T) {
	ix, _ := NewIndex(10, 30) // three buckets to merge
	id := ix.NewPage()
	for i := 9; i >= 0; i-- {
		if err := ix.Bind(id, fmt.Sprintf("u%d@x", i)); err != nil {
			t.Fatal(err)
		}
	}
	var all []string
	after := ""
	for {
		page, err := ix.MembersAfter(after, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
		after = page[len(page)-1]
	}
	want, _ := ix.Members()
	if len(all) != len(want) {
		t.Fatalf("paged %d members, want %d", len(all), len(want))
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("page order diverges at %d: %q vs %q", i, all[i], want[i])
		}
	}
	if got, _ := ix.MembersAfter("u9@x", 5); len(got) != 0 {
		t.Fatalf("past-the-end cursor returned %v", got)
	}
	if got, _ := ix.MembersAfter("", 0); got != nil {
		t.Fatalf("zero limit returned %v", got)
	}
}

func TestIndexNeedsRepartitionMatchesTable(t *testing.T) {
	// The index heuristic must agree with §V-A computed from a plain table
	// of roster sizes kept beside it over the same membership history.
	ix, _ := NewIndex(4, 16)
	members := make([]string, 16)
	for i := range members {
		members[i] = fmt.Sprintf("u%d@x", i)
	}
	if err := bootstrap(ix, members); err != nil {
		t.Fatal(err)
	}
	table := map[string]int{}
	for _, id := range ix.PageIDs() {
		table[id] = 4
	}
	sparse := func() bool {
		if len(table) <= 1 {
			return false
		}
		wellFilled := 0
		for _, n := range table {
			if 3*n >= 2*4 { // at least two-thirds of capacity 4
				wellFilled++
			}
		}
		return 2*wellFilled < len(table)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		m := members[rng.Intn(len(members))]
		if has, _ := ix.Contains(m); !has {
			continue
		}
		id, err := remove(ix, m)
		if err != nil {
			t.Fatal(err)
		}
		if table[id]--; table[id] == 0 {
			delete(table, id)
		}
		if sparse() != ix.NeedsRepartition() {
			t.Fatalf("heuristics diverge after %d removals: table=%v index=%v",
				i+1, sparse(), ix.NeedsRepartition())
		}
	}
}

func TestPageIDMatchesFmt(t *testing.T) {
	for _, num := range []int{0, 1, 9, 10, 99, 100, 12345, 99999, 100000, 999999, 1000000, 1234567, math.MaxInt32} {
		if got, want := pageID(num), fmt.Sprintf("p%06d", num); got != want {
			t.Fatalf("pageID(%d) = %q, want %q", num, got, want)
		}
	}
}

// refIndex is the map-and-sort model the Index replaced: bindings in one
// map per bucket, partitions in a map, and every encoding sorts on the way
// out. FuzzIndexOps drives it beside an Index and pins every encoding and
// listing of the Index to it.
type refIndex struct {
	capacity, nextID, fanout int
	pages                    map[string]*pageInfo
	buckets                  map[int]map[string]string // member → page ID
	dirty                    map[int]bool
}

func newRefIndex(capacity, members, nextID int) *refIndex {
	r := &refIndex{
		capacity: capacity,
		nextID:   nextID,
		fanout:   max(1, (members+capacity-1)/capacity),
		pages:    map[string]*pageInfo{},
		buckets:  map[int]map[string]string{},
		dirty:    map[int]bool{},
	}
	for i := 0; i < r.fanout; i++ {
		r.buckets[i] = map[string]string{}
		r.dirty[i] = true
	}
	return r
}

func (r *refIndex) pageIDs() []string {
	out := make([]string, 0, len(r.pages))
	for id := range r.pages {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return r.pages[out[i]].num < r.pages[out[j]].num })
	return out
}

func (r *refIndex) members() []string {
	var out []string
	for _, b := range r.buckets {
		for m := range b {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

func (r *refIndex) bind(id, user string) {
	i := BucketOf(user, r.fanout)
	r.buckets[i][user] = id
	r.pages[id].count++
	r.dirty[i] = true
}

func (r *refIndex) unbind(user string) string {
	i := BucketOf(user, r.fanout)
	id := r.buckets[i][user]
	delete(r.buckets[i], user)
	r.pages[id].count--
	r.dirty[i] = true
	return id
}

func (r *refIndex) grow() {
	grown := newRefIndex(r.capacity, 2*r.fanout*r.capacity, r.nextID)
	for _, b := range r.buckets {
		for m, id := range b {
			grown.buckets[BucketOf(m, grown.fanout)][m] = id
		}
	}
	r.fanout, r.buckets, r.dirty = grown.fanout, grown.buckets, grown.dirty
}

// takeDirty is TakeDirty over the model.
func (r *refIndex) takeDirty() map[string][]byte {
	out := map[string][]byte{}
	for i := range r.dirty {
		out[BucketObject(i)] = marshalBucketReference(r, i)
	}
	r.dirty = map[int]bool{}
	return out
}

// marshalReference is the header encoder the Index used before it kept its
// partitions in order: the IDs sorted by number on every call.
func marshalReference(r *refIndex) []byte {
	buf := []byte{kindHeader}
	buf = wire.AppendUvarint(buf, uint64(r.capacity))
	buf = wire.AppendUvarint(buf, uint64(r.nextID))
	buf = wire.AppendUvarint(buf, uint64(r.fanout))
	buf = wire.AppendUvarint(buf, uint64(len(r.pages)))
	for _, id := range r.pageIDs() {
		pi := r.pages[id]
		buf = wire.AppendUvarint(buf, uint64(pi.num))
		buf = wire.AppendUvarint(buf, uint64(pi.count))
		buf = wire.AppendBytes(buf, pi.wrapped)
		buf = wire.AppendBytes(buf, pi.handle)
	}
	return buf
}

// marshalBucketReference is the bucket encoder the Index used before it kept
// its buckets sorted: the names sorted on every call, each page number
// looked up by ID.
func marshalBucketReference(r *refIndex, i int) []byte {
	b := r.buckets[i]
	names := make([]string, 0, len(b))
	for m := range b {
		names = append(names, m)
	}
	sort.Strings(names)
	buf := []byte{kindBucket}
	buf = wire.AppendUvarint(buf, uint64(r.fanout))
	buf = wire.AppendUvarint(buf, uint64(i))
	buf = wire.AppendUvarint(buf, uint64(len(names)))
	for _, m := range names {
		buf = wire.AppendString(buf, m)
		buf = wire.AppendUvarint(buf, uint64(r.pages[b[m]].num))
	}
	return buf
}

// FuzzIndexOps runs a seeded random stream of index operations — new pages,
// binds, unbinds, page drops, envelope updates, directory growth,
// re-partitions, and reloads from the persisted objects so that buckets
// come back through the fetch — on an Index and on the map-and-sort model
// side by side. After every operation the dirty buckets and the header must
// encode byte for byte as the model's, the partition order must match, and
// now and then the full and paged member listings too.
func FuzzIndexOps(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(200))
	f.Add(int64(2), uint8(1), uint16(400))
	f.Add(int64(29), uint8(8), uint16(600))
	f.Fuzz(func(t *testing.T, seed int64, capacity uint8, steps uint16) {
		if capacity == 0 || capacity > 32 || steps > 2000 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		c := int(capacity)
		initial := rng.Intn(4 * c)
		ix, err := NewIndex(c, initial)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefIndex(c, initial, 0)
		store := map[string][]byte{}
		var names []string // every member, in join order
		fresh := 0
		persist := func(step int) {
			got, want := ix.TakeDirty(), ref.takeDirty()
			if len(got) != len(want) {
				t.Fatalf("step %d: %d dirty buckets, model has %d", step, len(got), len(want))
			}
			for object, blob := range want {
				if !bytes.Equal(got[object], blob) {
					t.Fatalf("step %d: %s encodes differently from the model", step, object)
				}
				store[object] = blob
			}
			header := ix.Marshal()
			if !bytes.Equal(header, marshalReference(ref)) {
				t.Fatalf("step %d: header encodes differently from the model", step)
			}
			store[HeaderObject] = header
			if !slices.Equal(ix.PageIDs(), ref.pageIDs()) {
				t.Fatalf("step %d: PageIDs %v, model %v", step, ix.PageIDs(), ref.pageIDs())
			}
			var entries []string
			for e := range ix.Entries() {
				if wy, wh := ix.Envelope(e.ID); e.Count != ix.Count(e.ID) || !bytes.Equal(e.Wrapped, wy) || !bytes.Equal(e.Handle, wh) {
					t.Fatalf("step %d: Entries disagrees with Count/Envelope on %s", step, e.ID)
				}
				entries = append(entries, e.ID)
			}
			if !slices.Equal(entries, ref.pageIDs()) {
				t.Fatalf("step %d: Entries order %v, model %v", step, entries, ref.pageIDs())
			}
		}
		for step := 0; step < int(steps); step++ {
			switch op := rng.Intn(20); {
			case op < 8: // join
				id, ok := ix.PickOpen(rng)
				if !ok {
					id = ix.NewPage()
					ref.nextID++
					ref.pages[id] = &pageInfo{num: ref.nextID}
				}
				if ref.pages[id] == nil || ref.pages[id].count >= c {
					t.Fatalf("step %d: PickOpen offered %s, which the model has full or unknown", step, id)
				}
				name := fmt.Sprintf("m%d-%d", fresh, rng.Intn(1000))
				fresh++
				if err := ix.Bind(id, name); err != nil {
					t.Fatalf("step %d: bind %s: %v", step, name, err)
				}
				ref.bind(id, name)
				names = append(names, name)
			case op < 13 && len(names) > 0: // leave, dropping an emptied partition
				k := rng.Intn(len(names))
				name := names[k]
				names = slices.Delete(names, k, k+1)
				id, err := ix.Unbind(name)
				if err != nil {
					t.Fatalf("step %d: unbind %s: %v", step, name, err)
				}
				if want := ref.unbind(name); id != want {
					t.Fatalf("step %d: %s left %s, model says %s", step, name, id, want)
				}
				if ref.pages[id].count == 0 {
					ix.DropPage(id)
					delete(ref.pages, id)
				}
			case op < 15 && len(ref.pages) > 0: // envelope update
				ids := ref.pageIDs()
				id := ids[rng.Intn(len(ids))]
				y, h := []byte(fmt.Sprintf("y%d", rng.Int())), []byte(fmt.Sprintf("h%d", rng.Int()))
				ix.SetEnvelope(id, y, h)
				ref.pages[id].wrapped, ref.pages[id].handle = y, h
			case op == 15 || ix.NeedsGrow(): // directory growth
				if err := ix.LoadAll(); err != nil {
					t.Fatal(err)
				}
				ix.Grow()
				ref.grow()
			case op == 16: // re-partition into a fresh index
				members, err := ix.Members()
				if err != nil {
					t.Fatal(err)
				}
				dense := ix.Repacked(len(members))
				next := newRefIndex(c, len(members), ref.nextID)
				for _, chunk := range Split(members, c) {
					id := dense.NewPage()
					next.nextID++
					next.pages[id] = &pageInfo{num: next.nextID}
					for _, m := range chunk {
						if err := dense.Bind(id, m); err != nil {
							t.Fatal(err)
						}
						next.bind(id, m)
					}
				}
				ix, ref = dense, next
				clear(store)
			case op == 17: // listings
				members, err := ix.Members()
				if err != nil {
					t.Fatal(err)
				}
				want := ref.members()
				if !slices.Equal(members, want) {
					t.Fatalf("step %d: Members diverges from the model", step)
				}
				after := ""
				if len(want) > 0 && rng.Intn(2) == 0 {
					after = want[rng.Intn(len(want))]
				}
				limit := 1 + rng.Intn(2*c)
				page, err := ix.MembersAfter(after, limit)
				if err != nil {
					t.Fatal(err)
				}
				j, _ := slices.BinarySearch(want, after)
				for j < len(want) && want[j] <= after {
					j++
				}
				if tail := want[j:]; !slices.Equal(page, tail[:min(limit, len(tail))]) {
					t.Fatalf("step %d: MembersAfter(%q, %d) = %v", step, after, limit, page)
				}
			default: // reload from the store: buckets come back through the fetch
				persist(step)
				loaded, err := UnmarshalIndex(store[HeaderObject])
				if err != nil {
					t.Fatalf("step %d: reloading the header: %v", step, err)
				}
				snapshot := maps.Clone(store)
				loaded.SetBucketFetch(func(object string) ([]byte, error) {
					data, ok := snapshot[object]
					if !ok {
						return nil, fmt.Errorf("no object %s", object)
					}
					return data, nil
				})
				ix = loaded
			}
			persist(step)
		}
		checkInvariants(t, ix)
	})
}

// benchIndex is the paper-shaped index of BenchmarkIndexTakeDirty and
// BenchmarkIndexMarshal: 128 full partitions of capacity 256, a directory of
// 128 buckets of about 256 names, every envelope set.
func benchIndex(b *testing.B) (*Index, []string) {
	const capacity, parts = 256, 128
	members := make([]string, capacity*parts)
	for i := range members {
		members[i] = fmt.Sprintf("user-%06d@example.com", i)
	}
	ix, err := NewIndex(capacity, len(members))
	if err != nil {
		b.Fatal(err)
	}
	if err := bootstrap(ix, members); err != nil {
		b.Fatal(err)
	}
	for _, id := range ix.PageIDs() {
		ix.SetEnvelope(id, make([]byte, 60), make([]byte, 100))
	}
	ix.TakeDirty()
	return ix, members
}

// BenchmarkIndexTakeDirty is the directory share of one membership op: a
// name leaves and rejoins its partition, and the one bucket it dirtied is
// encoded.
func BenchmarkIndexTakeDirty(b *testing.B) {
	ix, members := benchIndex(b)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		m := members[i%len(members)]
		i += 7919
		id, err := ix.Unbind(m)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.Bind(id, m); err != nil {
			b.Fatal(err)
		}
		if len(ix.TakeDirty()) != 1 {
			b.Fatal("one rebind dirtied more than one bucket")
		}
	}
}

// BenchmarkIndexMarshal is the group header every op rewrites.
func BenchmarkIndexMarshal(b *testing.B) {
	ix, _ := benchIndex(b)
	b.ReportAllocs()
	for b.Loop() {
		ix.Marshal()
	}
}
