// Package ibbesgx is a from-scratch Go implementation of IBBE-SGX
// (Contiu et al., DSN 2018): cryptographic group access control that keeps
// group keys derivable only by group members, administrators included —
// zero knowledge for the honest-but-curious administrator and cloud.
//
// The package is the public facade over the full system:
//
//   - an identity-based broadcast encryption scheme (Delerablée 2007) on a
//     pure-Go Type-A pairing, with the IBBE-SGX O(n)/O(1) fast paths;
//   - a simulated SGX enclave holding the master secret, with sealing and
//     remote attestation (quotes, a simulated IAS, an auditor/CA issuing
//     X.509 certificates for the enclave identity);
//   - the partitioning mechanism bounding client decryption cost;
//   - a Dropbox-like cloud store (in-memory and HTTP) with long polling;
//   - administrator and client frontends wired through the above.
//
// # Quickstart
//
//	sys, _ := ibbesgx.NewSystem(ibbesgx.Options{})
//	store := ibbesgx.NewMemStore()
//	admin, _ := sys.NewAdmin("admin", store)
//	_ = admin.CreateGroup(ctx, "designers", []string{"alice", "bob"})
//
//	creds, _ := sys.ProvisionUser("alice")       // attested key provisioning
//	cli, _ := sys.NewClient(creds, store, "designers")
//	gk, _ := cli.GroupKey(ctx)                   // 32-byte AES group key
//
// See examples/ for complete programs and README's Architecture section for
// the system map.
package ibbesgx

import (
	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/storage"
	"github.com/ibbesgx/ibbesgx/internal/trace"
)

// GroupKey is the symmetric group key gk protected by the scheme (AES-256).
type GroupKey = [kdf.KeySize]byte

// Store is the cloud-storage interface: a bi-level hierarchy (group
// directory / partition object) with PUT semantics and directory-level long
// polling, as the paper uses Dropbox.
type Store = storage.Store

// Latency configures injected cloud latencies for the in-memory store.
type Latency = storage.Latency

// Admin is the administrator frontend: membership operations executed in
// the enclave and published to the cloud store, each as one conditional
// commit. An operation whose publish fails drops the group from the
// administrator's cache; RestoreGroup resumes it from the cloud.
type Admin = admin.Admin

// Client is a user's view of one group: long-polling listener and group-key
// derivation (no SGX needed on the client side).
type Client = client.Client

// OpLog is the certified membership-operation log, hash-chained per op and
// signed per export (the paper's §VIII multi-admin accountability sketch).
type OpLog = core.OpLog

// Update describes the storage effect of a membership operation.
type Update = core.Update

// Trace is a replayable membership workload (see the trace generators).
type Trace = trace.Trace

// ErrEvicted is returned by Client operations after the user was revoked.
var ErrEvicted = client.ErrEvicted

// NewMemStore returns an in-process Store with no injected latency.
func NewMemStore() *storage.MemStore {
	return storage.NewMemStore(storage.Latency{})
}

// NewMemStoreWithLatency returns an in-process Store that simulates cloud
// round-trip times.
func NewMemStoreWithLatency(lat Latency) *storage.MemStore {
	return storage.NewMemStore(lat)
}

// NewHTTPStore returns a Store speaking the cloudsim HTTP protocol (see
// cmd/cloudsim).
func NewHTTPStore(baseURL string) *storage.HTTPStore {
	return storage.NewHTTPStore(baseURL)
}

// NewStorageServer wraps a Store as an HTTP handler implementing the
// Dropbox-like protocol (PUT/GET/DELETE objects, list, version, long poll).
func NewStorageServer(st Store) *storage.Server {
	return storage.NewServer(st)
}

// KernelTrace generates the deterministic Linux-kernel-shaped workload used
// by the paper's Fig. 9 (43,468 ops, peak group 2,803, ten years).
func KernelTrace() (*Trace, error) {
	return trace.Kernel(trace.DefaultKernelConfig())
}

// SyntheticTrace generates a fixed-length workload with the given
// revocation rate over a pre-seeded group (the paper's Fig. 10 workloads).
func SyntheticTrace(ops int, revocationRate float64, initialSize int, seed int64) (*Trace, error) {
	return trace.Synthetic(trace.SyntheticConfig{
		Ops:            ops,
		RevocationRate: revocationRate,
		InitialSize:    initialSize,
		Seed:           seed,
	})
}
