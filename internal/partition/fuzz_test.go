package partition

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"testing"
)

// The two decoders below read bytes as the honest-but-curious store could
// hand them back: each must reject or round-trip to the same bytes (so
// trailing bytes, non-canonical orders and duplicate IDs cannot be accepted),
// never panic, and never size an allocation from a length it has not checked
// against the buffer (wire.Reader.Count).

func FuzzUnmarshalIndex(f *testing.F) {
	ix, _ := NewIndex(3, 7)
	if err := bootstrap(ix, names(7)); err != nil {
		f.Fatal(err)
	}
	for _, id := range ix.PageIDs() {
		ix.SetEnvelope(id, []byte("wrapped-"+id), []byte("handle-"+id))
	}
	f.Add(ix.Marshal())
	f.Add(header(2, 2, 1, [2]uint64{1, 1}, [2]uint64{1, 1}))      // duplicate partition
	f.Add(header(2, 1, 1, [2]uint64{1, 3}))                       // over-capacity count
	f.Add(append(header(2, 1, 1, [2]uint64{1, 1}), 0))            // trailing byte
	f.Add([]byte{kindHeader, 2, 1, 1, 0xff, 0xff, 0xff, 0xff, 7}) // page count past the buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalIndex(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Marshal(), data) {
			t.Fatal("accepted header is not the canonical encoding of what it decoded to")
		}
		total := 0
		for _, id := range got.PageIDs() {
			if n := got.Count(id); n < 1 || n > got.Capacity() {
				t.Fatalf("accepted partition %s with %d members at capacity %d", id, n, got.Capacity())
			}
			total += got.Count(id)
		}
		if total != got.Len() || got.Fanout() < 1 {
			t.Fatalf("accepted header: Len %d, counts sum to %d, fan-out %d", got.Len(), total, got.Fanout())
		}
	})
}

func FuzzUnmarshalBucket(f *testing.F) {
	ix, _ := NewIndex(3, 7) // 3 buckets
	if err := bootstrap(ix, names(7)); err != nil {
		f.Fatal(err)
	}
	for object, blob := range ix.TakeDirty() {
		var i int
		for i = 0; BucketObject(i) != object; i++ {
		}
		f.Add(blob, 3, i)
	}
	f.Add(bucket(1, 0, "a", 1, "a", 2), 1, 0)                        // a name bound twice
	f.Add(append(bucket(1, 0, "a", 1), 0), 1, 0)                     // trailing byte
	f.Add([]byte{kindBucket, 1, 0, 0xff, 0xff, 0xff, 0xff, 7}, 1, 0) // entry count past the buffer
	f.Fuzz(func(t *testing.T, data []byte, fanout, index int) {
		if fanout < 1 || fanout > maxFanout || index < 0 || index >= fanout {
			return
		}
		entries, err := UnmarshalBucket(data, fanout, index)
		if err != nil {
			return
		}
		for i, e := range entries {
			if i > 0 && e.Member <= entries[i-1].Member {
				t.Fatalf("accepted bucket lists %q after %q", e.Member, entries[i-1].Member)
			}
			if BucketOf(e.Member, fanout) != index {
				t.Fatalf("accepted bucket %d of %d holds %q", index, fanout, e.Member)
			}
		}
		if !bytes.Equal(reencodeBucket(t, data, entries, fanout, index), data) {
			t.Fatal("accepted bucket is not the canonical encoding of what it decoded to")
		}
	})
}

// reencodeBucket re-encodes an accepted bucket through the public path: a
// header that counts exactly its bindings, a fetch that serves it, one
// binding taken out and put back so TakeDirty writes the bucket again. An
// empty bucket gets a name that hashes to it bound and unbound instead; when
// no such name turns up quickly (a wide directory) it is returned as it came.
func reencodeBucket(t *testing.T, data []byte, entries []BucketEntry, fanout, index int) []byte {
	t.Helper()
	counts := map[uint64]uint64{}
	for _, e := range entries {
		num, err := strconv.ParseUint(e.Page[1:], 10, 64)
		if err != nil {
			t.Fatalf("decoded partition ID %q", e.Page)
		}
		counts[num]++
	}
	member := ""
	if len(entries) == 0 {
		counts[1] = 1 // a partition of the group's other buckets, with room
		for i := 0; i < 64 && member == ""; i++ {
			if name := fmt.Sprintf("n%d", i); BucketOf(name, fanout) == index {
				member = name
			}
		}
		if member == "" {
			return data
		}
	}
	nums := slices.Sorted(maps.Keys(counts))
	capacity := uint64(2)
	pages := make([][2]uint64, len(nums))
	for i, num := range nums {
		pages[i] = [2]uint64{num, counts[num]}
		capacity = max(capacity, counts[num])
	}
	ix, err := UnmarshalIndex(header(capacity, nums[len(nums)-1], uint64(fanout), pages...))
	if err != nil {
		t.Fatalf("header for the accepted bucket: %v", err)
	}
	want := BucketObject(index)
	ix.SetBucketFetch(func(object string) ([]byte, error) {
		if object != want {
			t.Fatalf("fetch of %s, want %s", object, want)
		}
		return data, nil
	})
	if member != "" {
		if err := ix.Bind("p000001", member); err != nil {
			t.Fatalf("bind into an empty bucket: %v", err)
		}
		if _, err := ix.Unbind(member); err != nil {
			t.Fatal(err)
		}
	} else {
		m := entries[len(entries)/2].Member
		id, err := ix.Unbind(m)
		if err != nil {
			t.Fatalf("accepted bucket does not load under a header that counts it: %v", err)
		}
		if err := ix.Bind(id, m); err != nil {
			t.Fatal(err)
		}
	}
	return ix.TakeDirty()[want]
}
