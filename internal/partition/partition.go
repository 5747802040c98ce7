// Package partition implements the group-partitioning bookkeeping of
// IBBE-SGX (§IV-C): groups are split into fixed-capacity partitions so the
// user-side decryption cost is bounded by the partition size |p| instead of
// the group size |S|. The package is pure data-structure logic — the
// cryptographic side of Algorithms 1–3 lives behind the enclave ECALLs and
// is orchestrated by internal/core.
//
// Group state is cut three ways: the Index (the group header: per-partition
// occupancy and key envelope, always resident, O(partitions)), the hashed
// member directory behind it (buckets of member→partition bindings, loaded
// on first use and then kept), and individually loadable/evictable Pages
// (rosters and ciphertexts, cached in an LRU and rehydrated through a
// PageSource). The package also owns the store encoding of the header and
// the buckets (codec.go).
package partition

import "errors"

// Errors returned by index operations.
var (
	// ErrMemberExists reports adding a user already present in the group.
	ErrMemberExists = errors.New("partition: user already in the group")
	// ErrNoSuchMember reports an operation on a user not in the group.
	ErrNoSuchMember = errors.New("partition: user not in the group")
	// ErrPartitionFull reports an insertion into a full partition.
	ErrPartitionFull = errors.New("partition: partition is full")
	// ErrBadCapacity reports a non-positive partition capacity.
	ErrBadCapacity = errors.New("partition: capacity must be positive")
)

// Split divides members into consecutive slices of at most capacity
// elements — line 1 of Algorithm 1.
func Split(members []string, capacity int) [][]string {
	if capacity < 1 {
		return nil
	}
	out := make([][]string, 0, (len(members)+capacity-1)/capacity)
	for start := 0; start < len(members); start += capacity {
		end := start + capacity
		if end > len(members) {
			end = len(members)
		}
		out = append(out, append([]string(nil), members[start:end]...))
	}
	return out
}
