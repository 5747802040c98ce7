package partition

import (
	"errors"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/wire"
)

// restoreFrom decodes the header of what storeOf persisted and installs the
// fetch — the partition table as a standby rebuilds it from the store.
func restoreFrom(t *testing.T, orig *Index) *Index {
	t.Helper()
	objects, fetch, _ := storeOf(orig)
	restored, err := UnmarshalIndex(objects[HeaderObject])
	if err != nil {
		t.Fatalf("UnmarshalIndex: %v", err)
	}
	restored.SetBucketFetch(fetch)
	return restored
}

func TestNewTableFromRoundTrip(t *testing.T) {
	orig := newTable(t, 3, 8)
	restored := restoreFrom(t, orig)
	if restored.Len() != orig.Len() || restored.PageCount() != orig.PageCount() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			restored.Len(), restored.PageCount(), orig.Len(), orig.PageCount())
	}
	checkInvariants(t, restored)
	// Lookups resolve identically.
	members, _ := orig.Members()
	for _, u := range members {
		a, okA, _ := orig.PageOf(u)
		b, okB, err := restored.PageOf(u)
		if err != nil || !okA || !okB || a != b {
			t.Fatalf("lookup diverges for %s: %q vs %q (%v)", u, a, b, err)
		}
	}
}

func TestNewTableFromResumesIDAllocation(t *testing.T) {
	restored := restoreFrom(t, newTable(t, 2, 4)) // p000001, p000002
	id := restored.NewPage()
	if err := restored.Bind(id, "fresh"); err != nil {
		t.Fatal(err)
	}
	if id != "p000003" {
		t.Fatalf("resumed ID = %s, want p000003", id)
	}
}

// header encodes a group header by hand: capacity, nextID, fan-out and
// (number, count) per partition.
func header(capacity, nextID, fanout uint64, pages ...[2]uint64) []byte {
	buf := []byte{kindHeader}
	for _, v := range []uint64{capacity, nextID, fanout, uint64(len(pages))} {
		buf = wire.AppendUvarint(buf, v)
	}
	for _, p := range pages {
		buf = wire.AppendUvarint(buf, p[0])
		buf = wire.AppendUvarint(buf, p[1])
		buf = wire.AppendBytes(buf, []byte("y"))
		buf = wire.AppendBytes(buf, []byte("h"))
	}
	return buf
}

// bucket encodes a directory bucket by hand from (name, partition number)
// pairs, in the order given.
func bucket(fanout, index uint64, entries ...any) []byte {
	buf := []byte{kindBucket}
	for _, v := range []uint64{fanout, index, uint64(len(entries) / 2)} {
		buf = wire.AppendUvarint(buf, v)
	}
	for i := 0; i < len(entries); i += 2 {
		buf = wire.AppendString(buf, entries[i].(string))
		buf = wire.AppendUvarint(buf, uint64(entries[i+1].(int)))
	}
	return buf
}

func TestNewTableFromValidates(t *testing.T) {
	if _, err := UnmarshalIndex(header(2, 1, 1, [2]uint64{1, 1})); err != nil {
		t.Fatalf("well-formed header rejected: %v", err)
	}
	if _, err := UnmarshalIndex(header(0, 1, 1, [2]uint64{1, 1})); !errors.Is(err, ErrBadCapacity) {
		t.Fatalf("bad capacity accepted: %v", err)
	}
	for name, blob := range map[string][]byte{
		"zero fan-out":            header(2, 1, 0, [2]uint64{1, 1}),
		"partition number 0":      header(2, 1, 1, [2]uint64{0, 1}),
		"number past the counter": header(2, 1, 1, [2]uint64{2, 1}),
		"empty partition":         header(2, 1, 1, [2]uint64{1, 0}),
		"over-capacity partition": header(2, 1, 1, [2]uint64{1, 3}),
		"duplicate partition":     header(2, 2, 1, [2]uint64{1, 1}, [2]uint64{1, 1}),
		"partitions out of order": header(2, 2, 1, [2]uint64{2, 1}, [2]uint64{1, 1}),
		"trailing bytes":          append(header(2, 1, 1, [2]uint64{1, 1}), 0),
		"count past the buffer":   {kindHeader, 2, 1, 1, 5},
		"a bucket, not a header":  bucket(1, 0),
	} {
		if _, err := UnmarshalIndex(blob); !errors.Is(err, ErrBadDirectory) {
			t.Errorf("%s accepted: %v", name, err)
		}
	}

	// Buckets are validated against the header they are loaded under.
	a, b := "a", "b" // both hash to bucket 0 of 1
	for name, blob := range map[string][]byte{
		"duplicate membership":          bucket(1, 0, a, 1, a, 2),
		"names out of order":            bucket(1, 0, b, 1, a, 1),
		"unknown partition":             bucket(1, 0, a, 3),
		"partition number 0":            bucket(1, 0, a, 0),
		"more bindings than the header": bucket(1, 0, a, 1, b, 1),
		"written under another fan-out": bucket(2, 0, a, 1),
		"another bucket's object":       bucket(1, 1, a, 1),
		"trailing bytes":                append(bucket(1, 0, a, 1), 0),
	} {
		ix, err := UnmarshalIndex(header(2, 2, 1, [2]uint64{1, 1}, [2]uint64{2, 1}))
		if err != nil {
			t.Fatal(err)
		}
		blob := blob
		ix.SetBucketFetch(func(string) ([]byte, error) { return blob, nil })
		if _, err := ix.Contains(a); !errors.Is(err, ErrBadDirectory) {
			t.Errorf("bucket with %s accepted: %v", name, err)
		}
	}
	// A name filed under the wrong bucket of a wider directory.
	wrong := 1 - BucketOf(a, 2)
	if _, err := UnmarshalBucket(bucket(2, uint64(wrong), a, 1), 2, wrong); !errors.Is(err, ErrBadDirectory) {
		t.Errorf("name in a bucket it does not hash to accepted: %v", err)
	}
}

func TestNewTableFromDoesNotAliasInput(t *testing.T) {
	blob := header(4, 1, 1, [2]uint64{1, 2})
	restored, err := UnmarshalIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0xff
	}
	if y, h := restored.Envelope("p000001"); string(y) != "y" || string(h) != "h" {
		t.Fatalf("restored index aliases the caller's bytes: envelope %q %q", y, h)
	}
}
