package partition

import (
	"bytes"
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
		// Re-encode through an index holding exactly these bindings.
		back := &Index{fanout: fanout, pages: map[string]*pageInfo{}, buckets: map[int]map[string]string{index: {}}}
		for i, e := range entries {
			if i > 0 && e.Member <= entries[i-1].Member {
				t.Fatalf("accepted bucket lists %q after %q", e.Member, entries[i-1].Member)
			}
			if BucketOf(e.Member, fanout) != index {
				t.Fatalf("accepted bucket %d of %d holds %q", index, fanout, e.Member)
			}
			var num int
			for _, c := range e.Page[1:] {
				num = num*10 + int(c-'0')
			}
			back.pages[e.Page] = &pageInfo{num: num}
			back.buckets[index][e.Member] = e.Page
		}
		if !bytes.Equal(back.marshalBucket(index), data) {
			t.Fatal("accepted bucket is not the canonical encoding of what it decoded to")
		}
	})
}
