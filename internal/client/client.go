// Package client implements the user side of the end-to-end system
// (Fig. 5): it listens for group metadata changes with HTTP long polling at
// the group directory level, remembers the user's own partition and its wrap
// key, and derives the current group key on every change — entirely outside
// any enclave (users need no SGX).
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/partition"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// Errors returned by the client.
var (
	// ErrEvicted reports that no partition record lists this user anymore —
	// the user was revoked from the group.
	ErrEvicted = errors.New("client: user is not a member of the group")
)

// Client is one user's view of one group. Safe for concurrent use.
type Client struct {
	dec   *core.Client
	store storage.Store
	group string

	mu sync.Mutex
	// cache of the user's partition (Fig. 5's client cache).
	partitionID string
	version     uint64
	gk          [kdf.KeySize]byte
	hasKey      bool
	// lastHeader is the raw group header the current key was derived from;
	// with a record cache attached, an unchanged header skips the derivation.
	lastHeader []byte
	// wk is the wrap key SHA(bk) of the last IBBE decrypt. The partition
	// keeps bk until it loses a member, so with a record cache attached wk
	// opens the partition's yᵢ in any later header — an authenticated open,
	// which fails once bk has rotated.
	wk [kdf.KeySize]byte
	// decrypts counts IBBE decrypts, unwraps the derivations served by the
	// kept wrap key instead (for experiment reporting).
	decrypts, unwraps int64
	// cache, when set, serves object reads from memory (shared across the
	// group's readers) instead of hitting the store.
	cache *RecordCache
}

// New builds a client for a group with provisioned key material.
func New(scheme *ibbe.Scheme, pk *ibbe.PublicKey, id string, key *ibbe.UserKey, store storage.Store, group string) (*Client, error) {
	dec, err := core.NewClient(scheme, pk, id, key)
	if err != nil {
		return nil, err
	}
	return &Client{dec: dec, store: store, group: group}, nil
}

// ID returns the user identity.
func (c *Client) ID() string { return c.dec.ID() }

// Group returns the group name.
func (c *Client) Group() string { return c.group }

// SetCache attaches a shared RecordCache: object reads go through it, so a
// crowd of readers on one version of a group costs the cloud one GET per
// object, a refresh that finds the group header unchanged skips the
// derivation entirely, and one that finds a new wrapped key under an
// unchanged partition broadcast key opens it from the header alone — no
// record fetch, no IBBE decrypt.
func (c *Client) SetCache(cache *RecordCache) {
	c.mu.Lock()
	c.cache = cache
	c.mu.Unlock()
}

// getObject reads one group object and the directory version of the read,
// via the record cache when attached.
func (c *Client) getObject(ctx context.Context, name string) ([]byte, uint64, error) {
	if cache := c.recordCache(); cache != nil {
		return cache.Get(ctx, c.group, name)
	}
	return c.store.GetVersioned(ctx, c.group, name)
}

// recordCache returns the attached cache, nil when there is none.
func (c *Client) recordCache() *RecordCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache
}

// Decrypts returns how many IBBE decrypts this client performed.
func (c *Client) Decrypts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decrypts
}

// Unwraps returns how many group keys this client derived with its kept wrap
// key alone, without an IBBE decrypt.
func (c *Client) Unwraps() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.unwraps
}

// GroupKey returns the cached group key, syncing first if the cache is
// empty. Use Refresh/Watch to chase updates.
func (c *Client) GroupKey(ctx context.Context) ([kdf.KeySize]byte, error) {
	c.mu.Lock()
	if c.hasKey {
		gk := c.gk
		c.mu.Unlock()
		return gk, nil
	}
	c.mu.Unlock()
	return c.Refresh(ctx)
}

// errTorn marks a read that paired a group header with a directory bucket
// or a partition record of another directory version. The header, the
// buckets and the records are separate objects; an administrator publishes
// them in one atomic commit where the store has one, and as a chain of writes
// ending in the header where it does not, so such a pairing is possible —
// between two GETs, or for as long as a chain is under way — and is always
// detected.
var errTorn = errors.New("client: group directory changed under the read")

// tornPatience is how long a torn read waits for the directory to move on
// before it gives up: the publisher of the half it saw is one store round
// trip from its next write, or gone.
const tornPatience = 2 * time.Second

// Refresh fetches the group header — and, when the key cannot be had from it
// alone, the user's partition record — from the cloud and re-derives the
// group key (the decrypt operation of Fig. 8b, preceded by the cloud
// round-trips the paper says dominate it). A torn read fails closed: it never
// yields a key, it waits for the directory version to pass the header it read
// and reads again, for as long as the directory keeps moving.
func (c *Client) Refresh(ctx context.Context) ([kdf.KeySize]byte, error) {
	for {
		gk, seen, err := c.refreshOnce(ctx)
		if !errors.Is(err, errTorn) {
			return gk, err
		}
		wait, cancel := context.WithTimeout(ctx, tornPatience)
		v, werr := c.store.Poll(wait, c.group, seen)
		cancel()
		if ctx.Err() != nil {
			return gk, ctx.Err() // the caller gave up, the read did not fail
		}
		if werr != nil {
			return gk, err
		}
		if cache := c.recordCache(); cache != nil {
			cache.ObserveVersion(c.group, v)
		}
	}
}

// refreshOnce is one attempt of Refresh; it also returns the directory
// version its header read saw.
func (c *Client) refreshOnce(ctx context.Context) (gk [kdf.KeySize]byte, seen uint64, err error) {
	var zero [kdf.KeySize]byte
	blob, seen, err := c.getObject(ctx, partition.HeaderObject)
	if err != nil {
		return zero, 0, fmt.Errorf("client: reading group header: %w", err)
	}
	// With a record cache attached, the header alone settles most reads: a
	// byte-identical header means the same group key, and the kept wrap key
	// opens the partition's yᵢ for as long as the partition's broadcast key
	// stands. A wrap key that does not open it (the partition lost a member,
	// was re-keyed or is gone) falls through to the record and the IBBE
	// decrypt. (Without a cache, every Refresh decrypts, preserving the
	// paper's Fig. 8b measurement semantics for the decrypts counter.)
	c.mu.Lock()
	warm := c.cache != nil && c.hasKey
	pid, wk := c.partitionID, c.wk
	if warm && bytes.Equal(blob, c.lastHeader) {
		gk := c.gk
		c.mu.Unlock()
		return gk, seen, nil
	}
	c.mu.Unlock()
	hdr, err := partition.UnmarshalIndex(blob)
	if err != nil {
		return zero, seen, fmt.Errorf("client: group header: %w", err)
	}
	if wrapped, _ := hdr.Envelope(pid); warm && wrapped != nil {
		if gk, err := c.dec.Unwrap(c.group, wrapped, wk); err == nil {
			c.mu.Lock()
			c.unwraps++
			c.gk, c.lastHeader = gk, blob
			c.mu.Unlock()
			return gk, seen, nil
		}
	}
	rec, err := c.fetchOwnRecord(ctx, hdr, pid)
	if err != nil {
		return zero, seen, err
	}
	rec.WrappedGK, _ = hdr.Envelope(rec.PartitionID)
	gk, wk, err = c.dec.DecryptRecordKeys(c.group, rec)
	if errors.Is(err, kdf.ErrDecrypt) { // the header's yᵢ is not under this record's broadcast key
		return zero, seen, fmt.Errorf("%w: %v", errTorn, err)
	}
	if err != nil {
		return zero, seen, fmt.Errorf("client: deriving group key: %w", err)
	}
	c.mu.Lock()
	c.decrypts++
	c.partitionID, c.wk = rec.PartitionID, wk
	c.gk, c.hasKey, c.lastHeader = gk, true, blob
	c.mu.Unlock()
	return gk, seen, nil
}

// fetchOwnRecord gets the user's partition record as the header describes
// it: the partition the client last used if it still lists the user, else
// the one the user's directory bucket names — header → one bucket → one
// record, whatever the size of the group. A user no bucket binds is not a
// member (ErrEvicted); a bucket or a record that disagrees with the header
// is a torn read.
func (c *Client) fetchOwnRecord(ctx context.Context, hdr *partition.Index, cached string) (*core.PartitionRecord, error) {
	if hdr.Has(cached) {
		if rec, err := c.fetchRecord(ctx, hdr, cached); err == nil {
			return rec, nil
		}
	}
	i := partition.BucketOf(c.ID(), hdr.Fanout())
	blob, _, err := c.getObject(ctx, partition.BucketObject(i))
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			err = fmt.Errorf("%w: %v", errTorn, err)
		}
		return nil, err
	}
	entries, err := partition.UnmarshalBucket(blob, hdr.Fanout(), i)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTorn, err)
	}
	for _, e := range entries {
		if e.Member != c.ID() {
			continue
		}
		if !hdr.Has(e.Page) {
			return nil, fmt.Errorf("%w: directory names %s, the header does not", errTorn, e.Page)
		}
		return c.fetchRecord(ctx, hdr, e.Page)
	}
	return nil, fmt.Errorf("%w: %s in %s", ErrEvicted, c.ID(), c.group)
}

// fetchRecord reads one partition record and checks it against the header:
// it must list the user, and as many members as the header counts.
func (c *Client) fetchRecord(ctx context.Context, hdr *partition.Index, pid string) (*core.PartitionRecord, error) {
	blob, _, err := c.getObject(ctx, pid)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			err = fmt.Errorf("%w: %v", errTorn, err)
		}
		return nil, err
	}
	rec, err := core.UnmarshalRecord(c.dec.Scheme(), blob)
	if err != nil {
		return nil, err
	}
	if rec.PartitionID != pid || !rec.ContainsMember(c.ID()) || len(rec.Members) != hdr.Count(pid) {
		return nil, fmt.Errorf("%w: record %s does not match the header", errTorn, pid)
	}
	return rec, nil
}

// Watch long-polls the group directory and invokes fn with every newly
// derived group key, starting with the current one. It returns when ctx
// ends or the user is revoked (ErrEvicted).
func (c *Client) Watch(ctx context.Context, fn func(gk [kdf.KeySize]byte)) error {
	// The version to poll from is read before the first key: a write that
	// lands in between wakes the first poll instead of going unseen.
	c.mu.Lock()
	since := c.version
	c.mu.Unlock()
	if since == 0 {
		v, err := c.store.Version(ctx, c.group)
		if err != nil {
			return err
		}
		since = v
	}
	gk, err := c.Refresh(ctx)
	if err != nil {
		return err
	}
	fn(gk)
	for {
		v, err := c.store.Poll(ctx, c.group, since)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return fmt.Errorf("client: polling: %w", err)
		}
		since = v
		c.mu.Lock()
		c.version = v
		cache := c.cache
		c.mu.Unlock()
		if cache != nil {
			// Feed the poll-observed directory version to the cache: entries
			// older than v stop being served, so the Refresh below (and every
			// co-located reader sharing the cache) sees post-change records.
			cache.ObserveVersion(c.group, v)
		}
		newGK, err := c.Refresh(ctx)
		if err != nil {
			return err
		}
		if newGK != gk {
			gk = newGK
			fn(gk)
		}
	}
}
