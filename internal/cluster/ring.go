// Consistent-hash ring, the versioned Membership built on it and its
// persisted record. The implementation lives in internal/membership — a
// leaf package shared with the gateway-less client data plane — and the
// types are aliased here so the cluster API keeps its historical names.
// The package documentation lives in cluster.go.
package cluster

import (
	"github.com/ibbesgx/ibbesgx/internal/membership"
)

// Ring is a consistent-hash ring over shard IDs (membership.Ring).
type Ring = membership.Ring

// Membership is the versioned member set of the cluster
// (membership.Membership): a consistent-hash ring plus a monotone epoch
// doubling as the fencing token threaded through lease records and storage
// writes.
type Membership = membership.Membership

// MembershipRecord is the wire form of a Membership plus the routing
// targets known at publish time (membership.Record).
type MembershipRecord = membership.Record
