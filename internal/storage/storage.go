// Package storage simulates the honest-but-curious cloud storage of the
// paper (Dropbox in the original deployment): a blob store organised as a
// bi-level hierarchy — a directory per group, an object per partition —
// with PUT semantics for administrators and directory-level long polling
// for clients (Fig. 5).
//
// Two backends implement the same Store interface: an in-process MemStore
// with injectable latency (used by benchmarks, where cloud latency must be
// controlled), and an HTTP client/server pair in httpstore.go that runs the
// same protocol over the network. Both also implement the optional
// Committer (commit.go): an all-or-nothing multi-object write in one round
// trip, which is how administrators publish a membership update.
package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Errors returned by stores.
var (
	// ErrNotFound reports a missing object or directory.
	ErrNotFound = errors.New("storage: not found")
	// ErrVersionConflict reports a conditional mutation whose expected
	// directory version no longer matches — another writer got there first.
	ErrVersionConflict = errors.New("storage: directory version conflict")
	// ErrFenced reports a fenced mutation carrying an epoch older than the
	// highest the directory has seen — the writer is a zombie from a
	// superseded cluster membership and must stop, not retry.
	ErrFenced = errors.New("storage: write fenced by newer epoch")
	// ErrNotModified reports a conditional read (GetVersionedIf) whose
	// directory version still equals the caller's — the cached copy is
	// current and no object bytes were transferred. Not an error in the
	// failure sense; a cache revalidation hit.
	ErrNotModified = errors.New("storage: not modified")
)

// Store is the cloud interface used by administrators (Put/Delete) and
// clients (Get/List/Poll). Directory versions increase monotonically with
// every mutation inside the directory; Poll blocks until the version
// exceeds the caller's last-seen one — HTTP long polling in the Dropbox
// deployment.
type Store interface {
	// Put creates or replaces an object.
	Put(ctx context.Context, dir, name string, data []byte) error
	// PutIf creates or replaces an object only if the directory version
	// still equals ifDirVersion (0 for a directory that never existed),
	// failing with ErrVersionConflict otherwise. It is the optimistic-
	// concurrency primitive multi-administrator deployments serialise on:
	// a writer whose view of the directory is stale aborts cleanly instead
	// of clobbering a concurrent writer's records.
	PutIf(ctx context.Context, dir, name string, data []byte, ifDirVersion uint64) error
	// PutFenced is PutIf with a fencing token: each directory remembers the
	// highest epoch ever written to it, and a write whose epoch is LOWER
	// fails with ErrFenced before any version check. Leases alone cannot
	// stop a paused-then-resumed administrator from an old cluster
	// membership; the fencing token lets the store reject it outright
	// instead of relying on it losing every CAS race. epoch 0 degrades to
	// plain PutIf (no fence carried, no watermark raised).
	PutFenced(ctx context.Context, dir, name string, data []byte, ifDirVersion, epoch uint64) error
	// Delete removes an object; deleting a missing object is an error.
	Delete(ctx context.Context, dir, name string) error
	// Get fetches an object.
	Get(ctx context.Context, dir, name string) ([]byte, error)
	// GetVersioned fetches an object together with the directory version
	// current at the read. Directory versions are monotone, so the pair
	// (dir, name, dirVersion) is a valid cache key: a reader that already
	// holds the bytes for the directory's current version need not fetch at
	// all. The HTTP backend answers it in ONE round trip (the version rides
	// the X-Dir-Version response header).
	GetVersioned(ctx context.Context, dir, name string) (data []byte, dirVersion uint64, err error)
	// List returns the object names in a directory, sorted.
	List(ctx context.Context, dir string) ([]string, error)
	// Version returns the directory's current version (0 if it never existed).
	Version(ctx context.Context, dir string) (uint64, error)
	// Poll blocks until the directory version exceeds since (or ctx ends),
	// returning the new version.
	Poll(ctx context.Context, dir string, since uint64) (uint64, error)
}

// ConditionalGetter is the optional revalidation interface: a store that
// implements it can answer "give me the object unless the directory is
// still at version ifVersion" in one round trip, returning ErrNotModified
// (and transferring no object bytes) when the caller's copy is current.
// All in-tree backends implement it; GetVersionedIf falls back to a plain
// GetVersioned for stores that do not.
type ConditionalGetter interface {
	GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error)
}

// GetVersionedIf revalidates through the optional ConditionalGetter when
// the store (or a decorator chain ending in one) supports it, synthesising
// the ErrNotModified answer from a plain GetVersioned otherwise. ifVersion
// 0 never matches a live directory (versions start at 1), making it the
// unconditional degenerate case.
func GetVersionedIf(ctx context.Context, s Store, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	if cg, ok := s.(ConditionalGetter); ok {
		return cg.GetVersionedIf(ctx, dir, name, ifVersion)
	}
	data, ver, err := s.GetVersioned(ctx, dir, name)
	if err == nil && ifVersion != 0 && ver == ifVersion {
		return nil, ver, fmt.Errorf("%w: %s at %d", ErrNotModified, dir, ver)
	}
	return data, ver, err
}

// Latency configures the injected round-trip costs of the simulated cloud.
// Zero values mean "in-process speed". The paper's evaluation argues client
// decryption latency is overshadowed by cloud response time; these knobs
// let experiments reproduce that regime.
type Latency struct {
	// Put is added to every mutation, Get to every read, Notify delays
	// long-poll wake-ups after a mutation.
	Put, Get, Notify time.Duration
}

// MemStore is the in-process backend. Safe for concurrent use.
type MemStore struct {
	lat Latency

	mu      sync.Mutex
	dirs    map[string]*memDir
	puts    int64
	gets    int64
	byteTx  int64
	byteRx  int64
	deletes int64
}

type memDir struct {
	objects map[string][]byte
	version uint64
	// fenceEpoch is the highest epoch a PutFenced ever carried into this
	// directory; lower-epoch fenced writes are rejected (ErrFenced).
	fenceEpoch uint64
	waiters    []chan struct{}
}

// NewMemStore creates an empty store with the given injected latency.
func NewMemStore(lat Latency) *MemStore {
	return &MemStore{lat: lat, dirs: make(map[string]*memDir)}
}

var (
	_ Store     = (*MemStore)(nil)
	_ Committer = (*MemStore)(nil)
)

// Stats reports traffic counters (ops and payload bytes in each direction).
// Puts counts mutation round trips, so a Commit is ONE put however many
// objects it carries (puts × injected delay stays the write-latency model);
// BytesIn counts every payload byte of it and Deletes each object it
// actually removed.
type Stats struct {
	Puts, Gets, Deletes int64
	BytesIn, BytesOut   int64
}

// Stats returns a snapshot of the traffic counters.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Puts: m.puts, Gets: m.gets, Deletes: m.deletes, BytesIn: m.byteRx, BytesOut: m.byteTx}
}

// Put implements Store.
func (m *MemStore) Put(ctx context.Context, dir, name string, data []byte) error {
	if err := sleepCtx(ctx, m.lat.Put); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		d = &memDir{objects: make(map[string][]byte)}
		m.dirs[dir] = d
	}
	d.objects[name] = append([]byte(nil), data...)
	m.puts++
	m.byteRx += int64(len(data))
	m.bump(d)
	return nil
}

// PutIf implements Store.
func (m *MemStore) PutIf(ctx context.Context, dir, name string, data []byte, ifDirVersion uint64) error {
	return m.PutFenced(ctx, dir, name, data, ifDirVersion, 0)
}

// PutFenced implements Store.
func (m *MemStore) PutFenced(ctx context.Context, dir, name string, data []byte, ifDirVersion, epoch uint64) error {
	if err := sleepCtx(ctx, m.lat.Put); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, err := m.admit(dir, ifDirVersion, epoch)
	if err != nil {
		return err
	}
	d.objects[name] = append([]byte(nil), data...)
	m.puts++
	m.byteRx += int64(len(data))
	m.bump(d)
	return nil
}

// admit runs the checks every conditional mutation shares and returns the
// directory to mutate — created if this is its first write, its fence
// watermark raised to epoch. On an error nothing has changed. Callers hold
// m.mu.
func (m *MemStore) admit(dir string, ifDirVersion, epoch uint64) (*memDir, error) {
	d := m.dirs[dir]
	cur := uint64(0)
	if d != nil {
		cur = d.version
		// The fence dominates the version check: a zombie must learn it is
		// fenced (terminal) rather than conflicted (retryable).
		if epoch > 0 && epoch < d.fenceEpoch {
			return nil, fmt.Errorf("%w: %s fenced at epoch %d, write carries %d", ErrFenced, dir, d.fenceEpoch, epoch)
		}
	}
	if cur != ifDirVersion {
		return nil, fmt.Errorf("%w: %s at %d, want %d", ErrVersionConflict, dir, cur, ifDirVersion)
	}
	if d == nil {
		d = &memDir{objects: make(map[string][]byte)}
		m.dirs[dir] = d
	}
	if epoch > d.fenceEpoch {
		d.fenceEpoch = epoch
	}
	return d, nil
}

// Commit implements Committer: every object lands under one lock
// acquisition, behind one fence check and one version check, with one
// version bump and one poller wake-up, after one injected round trip.
func (m *MemStore) Commit(ctx context.Context, dir string, objs []Object, ifDirVersion, epoch uint64) (uint64, error) {
	if err := checkCommit(objs); err != nil {
		return 0, err
	}
	if err := sleepCtx(ctx, m.lat.Put); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, err := m.admit(dir, ifDirVersion, epoch)
	if err != nil {
		return 0, err
	}
	for _, o := range objs {
		if !o.Delete {
			d.objects[o.Name] = append([]byte(nil), o.Data...)
			m.byteRx += int64(len(o.Data))
		} else if _, ok := d.objects[o.Name]; ok {
			delete(d.objects, o.Name)
			m.deletes++
		}
	}
	m.puts++
	m.bump(d)
	return d.version, nil
}

// Delete implements Store.
func (m *MemStore) Delete(ctx context.Context, dir, name string) error {
	if err := sleepCtx(ctx, m.lat.Put); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	if _, ok := d.objects[name]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
	}
	delete(d.objects, name)
	m.deletes++
	m.bump(d)
	return nil
}

// Get implements Store.
func (m *MemStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	if err := sleepCtx(ctx, m.lat.Get); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	data, ok := d.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
	}
	m.gets++
	m.byteTx += int64(len(data))
	return append([]byte(nil), data...), nil
}

// GetMany implements MultiGetter: one Get latency and one lock acquisition
// for every name.
func (m *MemStore) GetMany(ctx context.Context, dir string, names []string) ([][]byte, []error) {
	data, errs := make([][]byte, len(names)), make([]error, len(names))
	if err := sleepCtx(ctx, m.lat.Get); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return data, errs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	for i, name := range names {
		if d == nil {
			errs[i] = fmt.Errorf("%w: %s", ErrNotFound, dir)
			continue
		}
		obj, ok := d.objects[name]
		if !ok {
			errs[i] = fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
			continue
		}
		m.gets++
		m.byteTx += int64(len(obj))
		data[i] = append([]byte(nil), obj...)
	}
	return data, errs
}

// GetVersioned implements Store: object bytes and directory version read
// under one lock acquisition, so the pair is consistent.
func (m *MemStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	return m.getVersioned(ctx, dir, name, 0)
}

// GetVersionedIf implements ConditionalGetter.
func (m *MemStore) GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	return m.getVersioned(ctx, dir, name, ifVersion)
}

func (m *MemStore) getVersioned(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	if err := sleepCtx(ctx, m.lat.Get); err != nil {
		return nil, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	if ifVersion != 0 && d.version == ifVersion {
		return nil, d.version, fmt.Errorf("%w: %s at %d", ErrNotModified, dir, d.version)
	}
	data, ok := d.objects[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
	}
	m.gets++
	m.byteTx += int64(len(data))
	return append([]byte(nil), data...), d.version, nil
}

// List implements Store.
func (m *MemStore) List(ctx context.Context, dir string) ([]string, error) {
	if err := sleepCtx(ctx, m.lat.Get); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[dir]
	if d == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	names := make([]string, 0, len(d.objects))
	for n := range d.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Version implements Store.
func (m *MemStore) Version(_ context.Context, dir string) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d := m.dirs[dir]; d != nil {
		return d.version, nil
	}
	return 0, nil
}

// Poll implements Store.
func (m *MemStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	for {
		m.mu.Lock()
		d := m.dirs[dir]
		if d == nil {
			d = &memDir{objects: make(map[string][]byte)}
			m.dirs[dir] = d
		}
		if d.version > since {
			v := d.version
			m.mu.Unlock()
			return v, nil
		}
		ch := make(chan struct{})
		d.waiters = append(d.waiters, ch)
		m.mu.Unlock()

		select {
		case <-ch:
			// Version moved; loop to re-check.
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// bump advances a directory version and wakes pollers. Callers hold m.mu.
func (m *MemStore) bump(d *memDir) {
	d.version++
	waiters := d.waiters
	d.waiters = nil
	notify := m.lat.Notify
	for _, ch := range waiters {
		ch := ch
		if notify == 0 {
			close(ch)
			continue
		}
		time.AfterFunc(notify, func() { close(ch) })
	}
}

// sleepCtx sleeps for dur unless the context ends first.
func sleepCtx(ctx context.Context, dur time.Duration) error {
	if dur <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
