// Package storage simulates the honest-but-curious cloud storage of the
// paper (Dropbox in the original deployment): a blob store organised as a
// bi-level hierarchy — a directory per group, an object per partition —
// with PUT semantics for administrators and directory-level long polling
// for clients (Fig. 5).
//
// One engine stores: MemStore, with injectable latency (benchmarks need
// the cloud's latency controlled), kept in memory (NewMemStore) or made
// durable by an fsynced, checksummed log that a reopen replays
// (OpenMemStore, memlog.go). An HTTP client/server pair in httpstore.go runs
// the same protocol over the network. Both implement the optional
// Committer (commit.go): an all-or-nothing multi-object write in one round
// trip, which is how administrators publish a membership update.
package storage

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// MemStore is the store engine behind every deployed backend: in memory
// (NewMemStore), or durable over an fsynced log (OpenMemStore, memlog.go).
// Safe for concurrent use.
type MemStore struct {
	lat Latency

	mu   sync.Mutex
	dirs map[string]*memDir
	// waiters are the pollers of each directory, kept apart from dirs so
	// that polling a name never creates it.
	waiters map[string][]chan struct{}
	// log is nil in memory; otherwise every mutation is appended to it and
	// fsynced before it becomes visible.
	log     *memLog
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
	// bytes is what the objects take in a log record (objectSize).
	bytes int64
}

// NewMemStore creates an empty in-memory store with the given injected
// latency.
func NewMemStore(lat Latency) *MemStore {
	return &MemStore{lat: lat, dirs: make(map[string]*memDir), waiters: make(map[string][]chan struct{})}
}

var (
	_ Store     = (*MemStore)(nil)
	_ Committer = (*MemStore)(nil)
)

// Stats reports traffic counters (ops and payload bytes in each direction).
// Puts counts mutation round trips, so a Commit is ONE put however many
// objects it carries (puts × injected delay stays the write-latency model);
// BytesIn counts every payload byte of it and Deletes each object it
// actually removed. Gets and BytesOut count object bodies served, one per
// object a read returned: a conditional read answered not-modified (304)
// and a not-found read are round trips that neither counter counts.
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
	_, err := m.write(dir, []Object{{Name: name, Data: data}}, 0, 0, false)
	return err
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
	_, err := m.write(dir, []Object{{Name: name, Data: data}}, ifDirVersion, epoch, true)
	return err
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
	return m.write(dir, objs, ifDirVersion, epoch, true)
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
	_, err := m.write(dir, []Object{{Name: name, Delete: true}}, 0, 0, false)
	return err
}

// write is the one mutation step every write method goes through: it checks
// the write (a conditional one against the fence, then the version), logs
// it, and applies it. The fence watermark rises only with the write itself,
// so a write that fails its check or its log append changes nothing: no
// object, no version, no watermark. Callers hold m.mu.
func (m *MemStore) write(dir string, objs []Object, ifDirVersion, epoch uint64, conditional bool) (uint64, error) {
	var cur, fence uint64
	if d := m.dirs[dir]; d != nil {
		cur, fence = d.version, d.fenceEpoch
	}
	if conditional {
		// The fence dominates the version check: a zombie must learn it is
		// fenced (terminal) rather than conflicted (retryable).
		if epoch > 0 && epoch < fence {
			return 0, fmt.Errorf("%w: %s fenced at epoch %d, write carries %d", ErrFenced, dir, fence, epoch)
		}
		if cur != ifDirVersion {
			return 0, fmt.Errorf("%w: %s at %d, want %d", ErrVersionConflict, dir, cur, ifDirVersion)
		}
		fence = max(fence, epoch)
	}
	if m.log != nil {
		if err := m.log.append(dir, cur+1, fence, objs); err != nil {
			return 0, err
		}
	}
	m.apply(dir, objs, cur+1, fence)
	if m.log != nil && m.log.size > compactFactor*m.log.live {
		// The write is durable already; a failed rewrite leaves the log
		// as it was and is retried after the next write.
		_ = m.compact()
	}
	return cur + 1, nil
}

// apply installs a checked (and logged, or replayed) mutation: the
// directory, created if new, takes objs and moves to version and fence, and
// its pollers wake. Callers hold m.mu.
func (m *MemStore) apply(dir string, objs []Object, version, fence uint64) {
	d := m.dirs[dir]
	before := int64(0)
	if d == nil {
		d = &memDir{objects: make(map[string][]byte)}
		m.dirs[dir] = d
	} else {
		before = d.recordSize(dir)
	}
	wrote := false
	for _, o := range objs {
		old, had := d.objects[o.Name]
		if had {
			d.bytes -= objectSize(o.Name, old)
		}
		if o.Delete {
			if had {
				delete(d.objects, o.Name)
				m.deletes++
			}
			continue
		}
		d.objects[o.Name] = append([]byte(nil), o.Data...)
		d.bytes += objectSize(o.Name, o.Data)
		m.byteRx += int64(len(o.Data))
		wrote = true
	}
	if wrote {
		m.puts++
	}
	d.version, d.fenceEpoch = version, fence
	if m.log != nil {
		m.log.live += d.recordSize(dir) - before
	}
	m.wake(dir)
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

// getVersioned serves GetVersioned and GetVersionedIf. It pays the injected
// Get latency on every call, but counts Gets and BytesOut only when it
// serves a body: a not-modified answer and a not-found read count neither.
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

// Poll implements Store. Polling a directory that does not exist waits for
// its creation without creating it, and a poller that gives up takes its
// wait entry with it, so polls of arbitrary names leave nothing behind.
func (m *MemStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	for {
		m.mu.Lock()
		if d := m.dirs[dir]; d != nil && d.version > since {
			v := d.version
			m.mu.Unlock()
			return v, nil
		}
		ch := make(chan struct{})
		m.waiters[dir] = append(m.waiters[dir], ch)
		m.mu.Unlock()

		select {
		case <-ch:
			// Version moved; loop to re-check.
		case <-ctx.Done():
			m.mu.Lock()
			if ws := slices.DeleteFunc(m.waiters[dir], func(c chan struct{}) bool { return c == ch }); len(ws) > 0 {
				m.waiters[dir] = ws
			} else {
				delete(m.waiters, dir)
			}
			m.mu.Unlock()
			return 0, ctx.Err()
		}
	}
}

// wake releases a directory's pollers. Callers hold m.mu.
func (m *MemStore) wake(dir string) {
	waiters := m.waiters[dir]
	if waiters == nil {
		return
	}
	delete(m.waiters, dir)
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
