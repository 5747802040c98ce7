// Store-backed membership: the versioned member set persists as a CAS
// record in the cloud store, exactly like the group state it governs — the
// paper's principle that ALL durable state lives in untrusted storage so
// any enclave-backed process can be restarted or replaced. A gateway that
// crashes and restarts re-adopts the current ring from the record instead
// of silently resetting to epoch 1, shards discover epoch bumps themselves
// through the store's Poll primitive, and gateway-less clients resolve
// group owners from the record's published targets without ever touching
// the router.
package membership

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/dkg"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

const (
	// Dir is the record's own store directory — its CAS version arbitrates
	// concurrent membership writers and its fence watermark (PutFenced with
	// the record's epoch) rejects publishes from superseded epochs outright.
	Dir = "_cluster_membership"
	// Object is the single object inside the directory.
	Object = "membership"
)

// ErrNoRecord reports a store with no persisted membership record — the
// cluster was never bootstrapped against it.
var ErrNoRecord = errors.New("cluster: no membership record in the store")

// Record is the wire form of a Membership plus the routing targets known at
// publish time. Targets are advisory — a restarted gateway whose shards
// came back on new ports overrides them — but they let a second gateway, a
// watching router or a direct-routing client resolve members it has never
// served itself.
type Record struct {
	Epoch   uint64            `json:"epoch"`
	Members []string          `json:"members"`
	VNodes  int               `json:"vnodes,omitempty"`
	Targets map[string]string `json:"targets,omitempty"`
	// DKG is the threshold sharing of the master secret (nil in sealed
	// mode): commitments, holder indices and sealed per-shard share blobs.
	// Riding inside the fenced membership record gives the sharing the same
	// CAS/epoch protection as the member set it belongs to.
	DKG *dkg.Record `json:"dkg,omitempty"`
	// MasterKey is the sealed-mode master secret (nil in threshold mode and
	// in records written before it was persisted). Its blob opens only in
	// the IBBE enclave code on the platform that sealed it, like the
	// threshold share blobs and a group's sealed key.
	MasterKey *MasterKey `json:"master_key,omitempty"`
}

// MasterKey is the persisted sealed-mode master key: the MSK sealed to the
// platform and the enclave measurement, and the master public key it
// belongs to. A restarted cluster restores it on every shard instead of
// minting a second master secret.
type MasterKey struct {
	SealedMSK []byte `json:"sealed_msk"`
	PublicKey []byte `json:"public_key"`
}

// Membership rebuilds the ring from the record.
func (r *Record) Membership() (*Membership, error) {
	return At(r.Epoch, r.Members, r.VNodes)
}

// RecordOf flattens a Membership (plus optional targets) into its wire form.
func RecordOf(m *Membership, targets map[string]string) *Record {
	return &Record{Epoch: m.Epoch, Members: m.Members(), VNodes: m.vnodes, Targets: targets}
}

// Load reads the persisted membership record, also returning the record
// directory's version — the CAS token a subsequent publish must condition
// on — in one store read. A store with no record returns ErrNoRecord at
// version 0: the record is never deleted, so its directory was never
// written.
func Load(ctx context.Context, store storage.Store) (*Record, uint64, error) {
	blob, ver, err := store.GetVersioned(ctx, Dir, Object)
	if errors.Is(err, storage.ErrNotFound) {
		return nil, 0, ErrNoRecord
	}
	if err != nil {
		return nil, 0, err
	}
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		return nil, 0, fmt.Errorf("cluster: corrupt membership record: %w", err)
	}
	if len(rec.Members) == 0 || rec.Epoch == 0 || rec.VNodes < 0 {
		return nil, 0, fmt.Errorf("cluster: invalid membership record (epoch %d, %d members, %d vnodes)", rec.Epoch, len(rec.Members), rec.VNodes)
	}
	vnodes := rec.VNodes
	if vnodes == 0 {
		vnodes = DefaultVirtualNodes
	}
	if err := checkRingSize(len(rec.Members), vnodes); err != nil {
		return nil, 0, err
	}
	return &rec, ver, nil
}

// Publish CAS-writes the record, fenced by its own epoch: the version
// condition serialises concurrent membership writers (two gateways
// computing successors from the same base — one loses with
// ErrVersionConflict and must re-read), and the fence watermark makes a
// publish from a superseded epoch terminally ErrFenced even if its version
// guess happens to be right. Writers go through Update, which does the
// re-read.
func Publish(ctx context.Context, store storage.Store, rec *Record, ifVersion uint64) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return store.PutFenced(ctx, Dir, Object, blob, ifVersion, rec.Epoch)
}

// updateAttempts bounds Update's re-read loop: a writer that keeps losing
// the CAS gives up with the last conflict instead of spinning.
const updateAttempts = 4

// Update is the one way the record changes: it reads the record and its
// version, calls fn with it (nil before the first publish) and CAS-publishes
// what fn returns, fenced at that record's epoch. fn computes the successor
// from the record it replaces and may refuse (its error is returned as is)
// or return nil to write nothing. A publish lost to a concurrent writer
// (ErrVersionConflict or ErrFenced) re-reads and calls fn again, up to
// updateAttempts times. Update returns the record now in the store: the one
// it wrote, or the one fn declined to replace.
func Update(ctx context.Context, store storage.Store, fn func(cur *Record) (*Record, error)) (*Record, error) {
	var err error
	for attempt := 0; attempt < updateAttempts; attempt++ {
		cur, ver, lerr := Load(ctx, store)
		if lerr != nil && !errors.Is(lerr, ErrNoRecord) {
			return nil, lerr
		}
		next, ferr := fn(cur)
		if ferr != nil {
			return nil, ferr
		}
		if next == nil {
			return cur, nil
		}
		if err = Publish(ctx, store, next, ver); err == nil {
			return next, nil
		}
		if !errors.Is(err, storage.ErrVersionConflict) && !errors.Is(err, storage.ErrFenced) {
			return nil, err
		}
	}
	return nil, err
}

// watchRetryDelay spaces retries after a transient store error inside a
// watch loop (the Poll itself blocks, so the loop is otherwise quiet).
const watchRetryDelay = 200 * time.Millisecond

// Watch delivers every persisted membership record — the current one
// immediately, then each newer one as it lands — until ctx ends. It is the
// loop behind View.Watch, whose epoch rule absorbs stale and repeated
// records, so at-least-once delivery is all the loop promises. Transient
// store errors are retried; the loop never returns them.
func Watch(ctx context.Context, store storage.Store, fn func(*Record)) {
	for ctx.Err() == nil {
		rec, ver, err := Load(ctx, store)
		if rec != nil {
			fn(rec)
		}
		if err == nil || errors.Is(err, ErrNoRecord) {
			_, err = store.Poll(ctx, Dir, ver)
		}
		// Transient store trouble (or a corrupt record mid-replace): back
		// off and re-read rather than spinning on Poll.
		if err != nil && sleepCtx(ctx, watchRetryDelay) != nil {
			return
		}
	}
}

// sleepCtx sleeps for dur unless the context ends first.
func sleepCtx(ctx context.Context, dur time.Duration) error {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
