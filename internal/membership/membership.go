// Package membership holds the cluster's group-placement primitives: the
// consistent-hash ring, the versioned member set built on it, and the
// persisted CAS record both sides of the wire share. It is deliberately a
// leaf package — the cluster (shards, router, autoscaler) and the client
// data plane (direct-to-shard routing, version-keyed record caching) both
// import it, so a gateway-less client can resolve group owners from the
// same record the gateway publishes without importing the server stack.
package membership

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// DefaultVirtualNodes balances the ring: each shard appears this many times
// on the circle, keeping group counts within a few percent of even for
// realistic shard counts.
const DefaultVirtualNodes = 128

// MaxVirtualNodes and MaxRingPoints bound a ring's size, so a record read
// from the store cannot make a process allocate or hash without limit.
const (
	MaxVirtualNodes = 4096
	MaxRingPoints   = 1 << 18
)

// Ring is a consistent-hash ring over shard IDs. It is immutable after
// construction (membership changes build a new Ring), hence safe for
// concurrent use.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted shard IDs
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds a ring over the given shard IDs with vnodes virtual nodes
// per shard (0 selects the default).
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	if err := checkRingSize(len(shards), vnodes); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{points: make([]ringPoint, 0, len(shards)*vnodes)}
	for _, s := range shards {
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", s)
		}
		seen[s] = true
		r.members = append(r.members, s)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: Hash(fmt.Sprintf("%s#%d", s, i)), shard: s})
		}
	}
	sort.Strings(r.members)
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// checkRingSize enforces MaxVirtualNodes and MaxRingPoints.
func checkRingSize(shards, vnodes int) error {
	if vnodes > MaxVirtualNodes || shards > MaxRingPoints/vnodes {
		return fmt.Errorf("cluster: ring of %d shards × %d virtual nodes exceeds the size bound", shards, vnodes)
	}
	return nil
}

// Hash maps a label to a point on the 64-bit circle.
func Hash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Members returns the shard IDs on the ring, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Owner returns the shard owning a group: the first virtual node at or
// after the group's point on the circle.
func (r *Ring) Owner(group string) string {
	return r.points[r.search(group)].shard
}

// Owners returns every shard in ring order starting from the group's owner,
// each exactly once — the failover candidate sequence: if the owner is
// down, the next distinct shard on the circle takes over its groups.
func (r *Ring) Owners(group string) []string {
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	start := r.search(group)
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// search finds the index of the first point at or after the group's hash.
func (r *Ring) search(group string) int {
	h := Hash("group|" + group)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return i
}

// Membership is the versioned member set of the cluster: a consistent-hash
// ring plus a monotone epoch. Every membership change — a shard joining or
// leaving — produces a NEW Membership with the epoch advanced by one; the
// epoch is the fencing token threaded through lease records and storage
// writes (storage.PutFenced), so a shard still operating under a superseded
// membership is rejected outright instead of racing CAS. Membership values
// are immutable and safe for concurrent use.
//
// Because ownership is decided by consistent hashing, a membership change
// moves only the groups on the joining (or leaving) shard's arc; everything
// else keeps its owner — the property that makes live rebalancing cheap.
type Membership struct {
	// Epoch is the version of this member set; it only ever grows.
	Epoch uint64
	// Ring maps groups to owners for this member set.
	Ring *Ring

	vnodes int
}

// New builds the epoch-1 membership over the initial shard set.
func New(shards []string, vnodes int) (*Membership, error) {
	return At(1, shards, vnodes)
}

// At builds a membership with an explicit epoch — the successor constructor
// AddShard/RemoveShard/Cluster.ApplyMembership chain through.
func At(epoch uint64, shards []string, vnodes int) (*Membership, error) {
	ring, err := NewRing(shards, vnodes)
	if err != nil {
		return nil, err
	}
	return &Membership{Epoch: epoch, Ring: ring, vnodes: vnodes}, nil
}

// Members returns the member shard IDs, sorted.
func (m *Membership) Members() []string { return m.Ring.Members() }

// Has reports whether id is a member. It reads the ring's member slice in
// place (the ring is immutable): Has sits on the per-request hot path.
func (m *Membership) Has(id string) bool { return slices.Contains(m.Ring.members, id) }

// Owner returns the shard owning a group under this membership.
func (m *Membership) Owner(group string) string { return m.Ring.Owner(group) }

// Owners returns the failover candidate sequence for a group.
func (m *Membership) Owners(group string) []string { return m.Ring.Owners(group) }

// AddShard returns the successor membership with id joined and the epoch
// advanced. Only groups on the joining shard's arc change owner.
func (m *Membership) AddShard(id string) (*Membership, error) {
	if m.Has(id) {
		return nil, fmt.Errorf("cluster: %s is already a member", id)
	}
	return At(m.Epoch+1, append(m.Members(), id), m.vnodes)
}

// RemoveShard returns the successor membership with id drained out and the
// epoch advanced. Only the leaving shard's groups change owner.
func (m *Membership) RemoveShard(id string) (*Membership, error) {
	members := m.Members()
	n := len(members)
	kept := slices.DeleteFunc(members, func(s string) bool { return s == id })
	if len(kept) == n {
		return nil, fmt.Errorf("cluster: %s is not a member", id)
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("cluster: cannot remove the last member %s", id)
	}
	return At(m.Epoch+1, kept, m.vnodes)
}
