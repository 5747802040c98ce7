// Package core implements the IBBE-SGX group access-control system — the
// paper's primary contribution. It orchestrates the partitioning mechanism
// (§IV-C) over the enclave ECALL surface: Algorithms 1 (create group),
// 2 (add user) and 3 (remove user), the re-partitioning heuristic, group
// re-keying, and the client-side decryption path.
//
// The Manager is storage-agnostic: every mutating operation returns an
// Update carrying every object of the group directory it changed — partition
// records, directory buckets, the group header, the sealed group key — and
// the objects to delete. The admin package applies updates to a cloud Store;
// benchmarks apply them to byte-counters only.
//
// Partition ciphertexts are mutually independent (§IV-C), so the Manager is
// a parallel partition engine: per-partition enclave work — encryption at
// group creation, re-keying on rotation, re-partitioning — fans out across a
// bounded worker pool, and groups are locked individually so
// membership operations on independent groups proceed concurrently.
//
// Group state is paged: each group keeps a partition.Index (the group header:
// per-partition occupancy, wrapped group key and re-wrap handle, always
// resident; behind it the hashed member directory, loaded bucket by bucket on
// first use) plus an LRU cache of partition.Pages (roster and ciphertext)
// hydrated on demand from PartitionRecords through a store-backed
// RecordFetch. Operations pin only the pages they touch — a revocation the
// pages that lost a member, nothing else — and the full-group sweeps
// (rotation, re-partitioning) stream in bounded chunks, so no operation needs
// more than O(pages touched) resident memory and no operation writes more
// than O(change) objects. Eviction is only enabled once a
// RecordFetch is installed (SetPageSource / RestoreGroupPaged); without one
// — pure in-memory use, as in tests and benchmarks driving the Manager
// directly — every page stays resident and behaviour matches the historic
// fully-materialised table.
//
// The pin protocol leans on the admin's per-group op+apply serialisation: a
// page written by operation N stays pinned (unevictable) until operation
// N+1 begins, by which time N's update has been applied, so the store can
// always rebuild exactly what the cache dropped.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/partition"
)

// Errors returned by the manager.
var (
	// ErrGroupExists reports creating a group name twice.
	ErrGroupExists = errors.New("core: group already exists")
	// ErrNoSuchGroup reports an operation on an unknown group.
	ErrNoSuchGroup = errors.New("core: no such group")
	// ErrTooManyMembers reports an unpaged member listing of a group larger
	// than MaxUnpagedMembers; callers must page with MembersPage instead.
	ErrTooManyMembers = errors.New("core: member list exceeds the unpaged cap")
)

// MaxUnpagedMembers caps Manager.Members: a group above this size only
// serves its member list through the paged MembersPage API, so no caller
// accidentally materialises a million-entry slice per request.
const MaxUnpagedMembers = 10_000

// Manager is the administrator-side engine. It owns, per group, the
// user→partition index and the resident page cache, and calls into the
// enclave for everything touching keys. Safe for concurrent use: operations
// on the same group are serialised by a per-group lock, operations on
// different groups run concurrently, and within one operation the
// per-partition enclave calls are spread over a worker pool of
// Parallelism() goroutines (default runtime.NumCPU()).
type Manager struct {
	// mu guards the groups map only; per-group state has its own lock.
	mu     sync.Mutex
	groups map[string]*groupState

	encl     *enclave.IBBEEnclave
	pk       *ibbe.PublicKey
	capacity int

	// rngMu guards rng, the partition-picking randomness shared by
	// concurrent AddUser calls (Algorithm 2's RandomItem).
	rngMu sync.Mutex
	rng   *rand.Rand

	// workers bounds the per-operation fan-out (see SetParallelism).
	workers atomic.Int32

	// maxResident bounds each group's page cache (see SetMaxResidentPages).
	maxResident atomic.Int32

	// DisableRepartition turns off the §V-A occupancy heuristic (used by
	// ablation benchmarks; production keeps it on).
	DisableRepartition bool

	// DisableRewrap turns off the re-wrap sweep, so a revocation re-keys
	// every partition as Algorithm 3 is published (used by the paper-figure
	// benchmarks; production keeps it on).
	DisableRewrap bool

	// repartitions counts occupancy-heuristic firings for replay reporting;
	// repartitionFailures counts the firings inside a removal that failed
	// and left the old layout in place.
	repartitions        atomic.Int64
	repartitionFailures atomic.Int64
}

// groupState is one group's index and page cache. Its mutex serialises
// operations on the group; the Manager's map lock is never held while the
// group lock is waited on, so independent groups never block each other.
// The pages pointer is never reassigned after construction, so its atomic
// counters can be read without the group lock (metric scrapes).
type groupState struct {
	mu       sync.Mutex
	idx      *partition.Index
	pages    *partition.Pages
	sealedGK []byte
	// invalid marks a group whose creation failed after it was published in
	// the map; waiters that win the lock afterwards treat it as absent.
	invalid bool
}

// NewManager creates a manager driving the given enclave with a fixed
// partition capacity. The enclave must already be set up (EcallSetup or
// EcallRestore); seed feeds the partition-picking randomness (Algorithm 2's
// RandomItem), kept separate from crypto randomness for reproducibility.
func NewManager(encl *enclave.IBBEEnclave, capacity int, seed int64) (*Manager, error) {
	pk := encl.PublicKey()
	if pk == nil {
		return nil, enclave.ErrEnclaveNotInitialized
	}
	if capacity < 1 || capacity > pk.MaxGroupSize() {
		return nil, fmt.Errorf("core: capacity %d outside [1, %d]", capacity, pk.MaxGroupSize())
	}
	m := &Manager{
		encl:     encl,
		pk:       pk,
		capacity: capacity,
		rng:      rand.New(rand.NewSource(seed)),
		groups:   make(map[string]*groupState),
	}
	m.workers.Store(int32(runtime.NumCPU()))
	return m, nil
}

// SetParallelism bounds the worker pool used for per-partition enclave work;
// n < 1 selects the serial path. Safe to call concurrently with operations
// (new operations pick up the new bound). The bound is forwarded to the
// curve layer's digit-parallel multi-exponentiation pool, so one knob sizes
// both the per-partition fan-out and the intra-operation parallelism.
func (m *Manager) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	m.workers.Store(int32(n))
	curve.SetMaxParallelism(n)
}

// Parallelism returns the current worker-pool bound.
func (m *Manager) Parallelism() int { return int(m.workers.Load()) }

// SetMaxResidentPages bounds each group's resident page cache; n <= 0 keeps
// pages unbounded. The bound applies to groups created or restored after the
// call, so deployments set it at wiring time (before any group exists).
// Full-group sweeps stream in chunks no larger than the bound, keeping
// per-operation resident memory at O(min(parallelism, bound)) pages.
func (m *Manager) SetMaxResidentPages(n int) {
	if n < 0 {
		n = 0
	}
	m.maxResident.Store(int32(n))
}

// MaxResidentPages returns the per-group page-cache bound (0 = unbounded).
func (m *Manager) MaxResidentPages() int { return int(m.maxResident.Load()) }

// PublicKey returns the system public key clients need for decryption.
func (m *Manager) PublicKey() *ibbe.PublicKey { return m.pk }

// Scheme returns the IBBE scheme the manager's enclave operates on (for
// record serialisation and client construction).
func (m *Manager) Scheme() *ibbe.Scheme { return m.encl.Scheme() }

// Capacity returns the fixed partition size.
func (m *Manager) Capacity() int { return m.capacity }

// Repartitions returns how many times the occupancy heuristic fired.
func (m *Manager) Repartitions() int64 { return m.repartitions.Load() }

// RepartitionFailures returns how many re-partitions the occupancy heuristic
// started inside a removal and could not finish. Each left the removal
// standing and the old layout in place.
func (m *Manager) RepartitionFailures() int64 { return m.repartitionFailures.Load() }

// lockGroup finds a group and acquires its lock. The caller must release
// g.mu. The map lock is dropped before g.mu is taken, so a slow operation on
// one group never stalls lookups of others.
func (m *Manager) lockGroup(name string) (*groupState, error) {
	m.mu.Lock()
	g, ok := m.groups[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchGroup, name)
	}
	g.mu.Lock()
	if g.invalid {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchGroup, name)
	}
	return g, nil
}

// Update describes the storage effects of one membership operation: every
// object of the group directory the operation changed, ready to be written
// in one commit. The admin needs nothing else from the manager to publish it.
type Update struct {
	Group string
	// Put holds the partition objects to write, keyed by partition ID: the
	// partitions whose roster or ciphertext changed, no others.
	Put map[string]*PartitionRecord
	// Delete names the objects to remove: emptied partitions and, after a
	// re-partition, the old partitions and the directory buckets the smaller
	// directory no longer has.
	Delete []string
	// Buckets holds the encoded directory buckets whose bindings changed,
	// keyed by object name.
	Buckets map[string][]byte
	// Header is the encoded group header (partition.HeaderObject), which
	// every operation rewrites.
	Header []byte
	// SealedGK is the sealed group key when the operation changed it (nil
	// otherwise) — Algorithm 1 line 7's "Store: (1) sealed gk".
	SealedGK []byte
}

// newUpdate allocates an update for a group.
func newUpdate(group string) *Update {
	return &Update{Group: group, Put: make(map[string]*PartitionRecord)}
}

// finish closes an operation's update with what the index accumulated: the
// buckets the operation dirtied, the header, and the sealed group key when
// the operation drew a new one.
func (g *groupState) finish(up *Update, newKey bool) *Update {
	up.Buckets = g.idx.TakeDirty()
	up.Header = g.idx.Marshal()
	if newKey {
		up.SealedGK = append([]byte(nil), g.sealedGK...)
	}
	return up
}

// RecordFetch loads one partition record from durable storage; it is how
// evicted pages rehydrate. The admin installs a store-backed fetch after a
// group's records are durably applied.
type RecordFetch func(partitionID string) (*PartitionRecord, error)

// recordSource adapts a RecordFetch to the partition.PageSource interface,
// keeping core free of any storage dependency.
type recordSource struct {
	fetch    RecordFetch
	capacity int
}

// LoadPage rehydrates a page from its stored record. The bytes come from the
// store, so the roster is bounded here; the operation that asked for the page
// checks its length against the header's count (rosterMatches).
func (s recordSource) LoadPage(id string) (*partition.Page, error) {
	rec, err := s.fetch(id)
	if err != nil {
		return nil, err
	}
	if rec == nil || rec.CT == nil || rec.PartitionID != id || len(rec.Members) > s.capacity {
		return nil, fmt.Errorf("%w: stored record of %s is not a partition of at most %d members", ErrBadRecord, id, s.capacity)
	}
	return &partition.Page{ID: id, Members: rec.Members, Payload: rec.CT}, nil
}

// pageCT returns the page's broadcast ciphertext.
func pageCT(p *partition.Page) *ibbe.Ciphertext { return p.Payload.(*ibbe.Ciphertext) }

// record assembles the partition's record from its resident page and the
// index's envelope; it deep-copies, so records never alias group state.
func (g *groupState) record(p *partition.Page) *PartitionRecord {
	wrapped, handle := g.idx.Envelope(p.ID)
	return &PartitionRecord{
		PartitionID: p.ID,
		Members:     append([]string(nil), p.Members...),
		CT:          pageCT(p).Clone(),
		WrappedGK:   append([]byte(nil), wrapped...),
		WrapHandle:  append([]byte(nil), handle...),
	}
}

// install makes a partition's new roster and ciphertext current: cached (and
// pinned) as its page, and queued in up as its record.
func (g *groupState) install(id string, members []string, ct *ibbe.Ciphertext, up *Update) {
	p := &partition.Page{ID: id, Members: members, Payload: ct}
	g.pages.Put(p)
	up.Put[id] = g.record(p)
}

// installFresh is install for a partition whose broadcast key was just
// minted: its wrapped group key and re-wrap handle are new as well.
func (g *groupState) installFresh(id string, members []string, pc *enclave.PartitionCrypto, up *Update) {
	g.idx.SetEnvelope(id, pc.WrappedGK, pc.WrapHandle)
	g.install(id, members, pc.CT, up)
}

// rosterMatches checks a roster an operation computed against the header's
// count for its partition: the two are stored in different objects, and an
// operation must not build on a pair that disagrees.
func (g *groupState) rosterMatches(id string, members []string) error {
	if len(members) != g.idx.Count(id) {
		return fmt.Errorf("%w: %s has %d members, the group header counts %d", ErrBadRecord, id, len(members), g.idx.Count(id))
	}
	return nil
}

// CreateGroup implements Algorithm 1: split members into fixed-size
// partitions, then — inside the enclave — draw the group key, build each
// partition's broadcast ciphertext in parallel, and wrap the group key per
// partition.
func (m *Manager) CreateGroup(name string, members []string) (*Update, error) {
	idx, err := partition.NewIndex(m.capacity, len(members))
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(members))
	for _, u := range members {
		if seen[u] {
			return nil, fmt.Errorf("%w: %s", partition.ErrMemberExists, u)
		}
		seen[u] = true
	}
	pages := partition.NewPages(m.MaxResidentPages(), nil)
	var created []*partition.Page
	for _, chunk := range partition.Split(members, m.capacity) {
		pid := idx.NewPage()
		for _, u := range chunk {
			if err := idx.Bind(pid, u); err != nil {
				return nil, err
			}
		}
		created = append(created, &partition.Page{ID: pid, Members: chunk})
	}
	g := &groupState{idx: idx, pages: pages}
	// Publish the group (locked) before the slow enclave work, so concurrent
	// creates of the same name fail fast and concurrent member operations
	// queue on the group lock instead of racing the creation.
	g.mu.Lock()
	m.mu.Lock()
	if _, ok := m.groups[name]; ok {
		m.mu.Unlock()
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrGroupExists, name)
	}
	m.groups[name] = g
	m.mu.Unlock()
	defer g.mu.Unlock()

	outs := make([]*enclave.PartitionCrypto, len(created))
	sealedGK, err := m.encl.EcallNewGroupKey(name)
	if err == nil {
		err = m.fanOut(len(created), func(i int) error {
			pc, e := m.encl.EcallCreatePartition(name, sealedGK, created[i].Members)
			outs[i] = pc
			return e
		})
	}
	if err != nil {
		g.invalid = true
		m.mu.Lock()
		delete(m.groups, name)
		m.mu.Unlock()
		return nil, err
	}
	up := newUpdate(name)
	for i, p := range created {
		g.installFresh(p.ID, p.Members, outs[i], up)
	}
	g.sealedGK = sealedGK
	return g.finish(up, true), nil
}

// AddUser implements Algorithm 2: place the user in a random partition with
// spare capacity (extending its ciphertext in O(1), leaving yᵢ untouched),
// or open a fresh partition wrapping the existing group key.
func (m *Manager) AddUser(name, user string) (*Update, error) {
	return m.AddUsers(name, []string{user})
}

// AddUsers is the batched form of AddUser: every user is placed per
// Algorithm 2, but the enclave work coalesces to at most one ECALL per
// touched partition — an existing partition absorbs all its joiners in a
// single ciphertext extension, and each freshly opened partition is built
// once with its full member list. The batch is atomic: on any failure the
// index is rolled back and no crypto material changes. Only the touched
// pages and directory buckets are hydrated and written, so a small batch on
// a huge group stays O(touched), not O(group).
func (m *Manager) AddUsers(name string, users []string) (*Update, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	// The previous operation's update was applied before this one was
	// admitted (the admin serialises op+apply per group), so its pinned
	// pages are rehydratable now and may be released.
	g.pages.ReleasePins()

	seen := make(map[string]bool, len(users))
	for _, u := range users {
		has, cerr := g.idx.Contains(u)
		if cerr != nil {
			return nil, cerr
		}
		if seen[u] || has {
			return nil, fmt.Errorf("%w: %s", partition.ErrMemberExists, u)
		}
		seen[u] = true
	}

	// Placement pass (pure index work): fill random open partitions first,
	// spill into fresh ones. Partitions opened by this batch keep absorbing
	// later users of the batch, so n overflow joins open ⌈n/capacity⌉
	// partitions, not n.
	var (
		added      []string
		joiners    = make(map[string][]string) // partition ID → joiners
		freshParts = make(map[string]bool)     // opened by this batch
	)
	rollback := func() {
		for i := len(added) - 1; i >= 0; i-- {
			if _, err := g.idx.Unbind(added[i]); err != nil {
				panic(fmt.Sprintf("core: add rollback: %v", err))
			}
		}
		for pid := range freshParts {
			g.idx.DropPage(pid)
		}
		g.idx.ClearDirty()
		g.pages.ReleasePins()
	}
	for _, u := range users {
		m.rngMu.Lock()
		pid, ok := g.idx.PickOpen(m.rng)
		m.rngMu.Unlock()
		if !ok {
			pid = g.idx.NewPage()
			freshParts[pid] = true
		}
		if err := g.idx.Bind(pid, u); err != nil {
			rollback()
			return nil, err
		}
		added = append(added, u)
		joiners[pid] = append(joiners[pid], u)
	}
	// A directory the adds outgrow is doubled once they have succeeded; the
	// part of that which can fail — loading every bucket — happens up front.
	grow := g.idx.NeedsGrow()
	if grow {
		if err := g.idx.LoadAll(); err != nil {
			rollback()
			return nil, err
		}
	}

	// Hydrate only the touched partitions and build each one's post-add
	// member list. Fresh partitions have no page yet; their joiners are
	// their full member list.
	type task struct {
		id     string
		fresh  bool
		ct     *ibbe.Ciphertext // nil for fresh partitions
		handle []byte           // the header's re-wrap handle; nil for fresh partitions
		newMem []string
	}
	ids := make([]string, 0, len(joiners))
	for id := range joiners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	tasks := make([]task, 0, len(ids))
	for _, id := range ids {
		t := task{id: id, fresh: freshParts[id], newMem: joiners[id]}
		if !t.fresh {
			p, perr := g.pages.Get(id)
			if perr == nil {
				t.ct = pageCT(p)
				_, t.handle = g.idx.Envelope(id)
				t.newMem = append(append([]string(nil), p.Members...), joiners[id]...)
				perr = g.rosterMatches(id, t.newMem)
			}
			if perr != nil {
				rollback()
				return nil, perr
			}
		}
		tasks = append(tasks, t)
	}

	// Enclave pass: one ECALL per touched partition, fanned out. An existing
	// partition is extended from the exponents its handle seals. A threshold
	// shard has no γ, so the O(1) extension is unavailable; it rebuilds each
	// touched partition from its full member list via classic encryption
	// instead. Same records, different cost.
	hasMSK := m.encl.HasMasterSecret()
	outs := make([]*enclave.PartitionCrypto, len(tasks))
	newCTs := make([]*ibbe.Ciphertext, len(tasks))
	handles := make([][]byte, len(tasks))
	err = m.fanOut(len(tasks), func(i int) (e error) {
		t := tasks[i]
		if t.fresh || !hasMSK {
			outs[i], e = m.encl.EcallCreatePartition(name, g.sealedGK, t.newMem)
			return e
		}
		newCTs[i], handles[i], e = m.encl.EcallAddUsersWithHandle(name, t.ct, t.handle, joiners[t.id])
		return e
	})
	if err != nil {
		rollback()
		return nil, err
	}

	up := newUpdate(name)
	for i, t := range tasks {
		if outs[i] != nil {
			g.installFresh(t.id, t.newMem, outs[i], up)
			continue
		}
		// Extension: bk, and with it yᵢ, is unchanged; the handle now seals
		// the grown Π.
		wrapped, _ := g.idx.Envelope(t.id)
		g.idx.SetEnvelope(t.id, wrapped, handles[i])
		g.install(t.id, t.newMem, newCTs[i], up)
	}
	if grow {
		g.idx.Grow()
	}
	return g.finish(up, false), nil
}

// RemoveUser implements Algorithm 3: drop the user from her partition,
// generate a fresh group key inside the enclave, re-key her partition in
// O(1), publish the new key to every other partition, and push all affected
// objects. The paper re-keys the other partitions too; here they keep their
// broadcast key — the revoked user never held it — and only their wrapped
// group key yᵢ changes, in the group header (see rekeySweep; DisableRewrap
// selects the paper's sweep). When the occupancy heuristic fires, the group
// is re-partitioned (re-created per Algorithm 1).
func (m *Manager) RemoveUser(name, user string) (*Update, error) {
	return m.RemoveUsers(name, []string{user})
}

// RemoveUsers is the batched form of RemoveUser: all users leave under a
// single fresh group key, with exactly one pass per remaining partition — a
// partition that lost k members is re-keyed once (not k times), and
// untouched partitions are re-wrapped together in one ECALL without their
// pages being touched.
func (m *Manager) RemoveUsers(name string, users []string) (*Update, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	g.pages.ReleasePins()

	seen := make(map[string]bool, len(users))
	for _, u := range users {
		if seen[u] {
			return nil, fmt.Errorf("core: duplicate user in removal batch: %s", u)
		}
		seen[u] = true
		has, cerr := g.idx.Contains(u)
		if cerr != nil {
			return nil, cerr
		}
		if !has {
			return nil, fmt.Errorf("%w: %s", partition.ErrNoSuchMember, u)
		}
	}
	if len(users) == 0 {
		return g.finish(newUpdate(name), false), nil
	}

	// Index pass: unbind everyone, tracking which partition lost whom. A
	// partition emptied here stays registered (count 0) until the sweep
	// succeeds, so a failure below can rebind every user.
	removedBy := make(map[string][]string)
	unbound := make([]string, 0, len(users))
	pidOf := make(map[string]string, len(users))
	rollbackIdx := func() {
		for i := len(unbound) - 1; i >= 0; i-- {
			u := unbound[i]
			if err := g.idx.Bind(pidOf[u], u); err != nil {
				panic(fmt.Sprintf("core: remove rollback: %v", err))
			}
		}
		g.idx.ClearDirty()
	}
	for _, u := range users {
		pid, uerr := g.idx.Unbind(u)
		if uerr != nil {
			rollbackIdx()
			return nil, uerr
		}
		unbound = append(unbound, u)
		pidOf[u] = pid
		removedBy[pid] = append(removedBy[pid], u)
	}

	// Enclave pass: one sealed fresh group key, then the sweep — removal and
	// re-key for partitions that lost members, re-wrap for the rest.
	sealedGK, err := m.encl.EcallNewGroupKey(name)
	if err != nil {
		rollbackIdx()
		return nil, err
	}
	up := newUpdate(name)
	if err := m.rekeySweep(name, g, sealedGK, removedBy, !m.DisableRewrap, up); err != nil {
		rollbackIdx()
		return nil, err
	}
	g.sealedGK = sealedGK
	for pid := range removedBy {
		if g.idx.Has(pid) && g.idx.Count(pid) == 0 { // partition emptied: drop it
			g.idx.DropPage(pid)
			g.pages.Drop(pid)
			up.Delete = append(up.Delete, pid)
		}
	}
	sort.Strings(up.Delete)

	if !m.DisableRepartition && g.idx.NeedsRepartition() && g.idx.Len() > 0 {
		// The removal stands on its own: a re-partition that fails leaves
		// the old layout in place, counted, and the heuristic fires again on
		// the next removal.
		if err := m.repartitionLocked(name, g, up); err != nil {
			m.repartitionFailures.Add(1)
		}
	}
	return g.finish(up, true), nil
}

// rekeySweep publishes sealedGK to every non-empty partition of the group.
// removedBy names the users each partition loses.
//
// With rewrap set (a revocation), the partitions that lose nobody keep their
// broadcast key — the revoked users never held it — and only get a new yᵢ:
// one EcallRewrapPartitions over the handles the index holds, written back to
// the index. No page is touched and no record is queued for them; the group
// header carries the change.
//
// A partition that loses members is re-keyed with the removal, and without
// rewrap (RekeyGroup, DisableRewrap) every partition takes the paper's
// per-partition re-key. The sweep computes first and commits after: the
// ECALLs stream in chunks of at most min(parallelism, page limit) pages,
// releasing each chunk's pins before the next, and only once every ECALL has
// succeeded are the new envelopes and pages installed — a step that cannot
// fail, pinning at most one chunk at a time. An installed page is evictable
// once its chunk is done: nothing revisits it within this operation, and the
// next operation on the group only starts after this update is applied. A
// failed sweep leaves envelopes and pages as they were; the caller restores
// index bindings and discards sealedGK.
func (m *Manager) rekeySweep(name string, g *groupState, sealedGK []byte, removedBy map[string][]string, rewrap bool, up *Update) error {
	var rekey, wrapped []string
	var wrapHandles, ys [][]byte
	for e := range g.idx.Entries() {
		if e.Count == 0 {
			continue
		}
		if rewrap && len(removedBy[e.ID]) == 0 {
			wrapped = append(wrapped, e.ID)
			wrapHandles = append(wrapHandles, e.Handle)
		} else {
			rekey = append(rekey, e.ID)
		}
	}
	if len(wrapped) > 0 {
		var err error
		if ys, err = m.encl.EcallRewrapPartitions(name, sealedGK, wrapHandles); err != nil {
			return err
		}
	}

	hasMSK := m.encl.HasMasterSecret()
	chunk := m.sweepChunk(g)
	outs := make([]*enclave.PartitionCrypto, len(rekey))
	kept := make([][]string, len(rekey))
	for start := 0; start < len(rekey); start += chunk {
		end := min(start+chunk, len(rekey))
		cur := make([]*partition.Page, end-start)
		handles := make([][]byte, end-start)
		for i := range cur {
			pid := rekey[start+i]
			p, err := g.pages.Get(pid)
			if err != nil {
				return err
			}
			cur[i], kept[start+i] = p, p.Members
			_, handles[i] = g.idx.Envelope(pid)
			if rem := removedBy[pid]; len(rem) > 0 {
				gone := make(map[string]bool, len(rem))
				for _, u := range rem {
					gone[u] = true
				}
				kept[start+i] = make([]string, 0, len(p.Members))
				for _, u := range p.Members {
					if !gone[u] {
						kept[start+i] = append(kept[start+i], u)
					}
				}
			}
			if err := g.rosterMatches(pid, kept[start+i]); err != nil {
				return err
			}
		}
		err := m.fanOut(len(cur), func(i int) (e error) {
			rem := removedBy[rekey[start+i]]
			switch {
			case hasMSK:
				// Removal and re-key alike derive the new header from the
				// exponents the partition's handle seals.
				outs[start+i], e = m.encl.EcallRekeyWithHandle(name, sealedGK, handles[i], rem)
			case len(rem) == 0:
				outs[start+i], e = m.encl.EcallRekeyPartition(name, sealedGK, pageCT(cur[i]))
			default:
				// Threshold shards cannot divide (γ+H(id)) terms out of a
				// ciphertext; partitions that lost members are rebuilt
				// classically from the post-removal member list instead.
				outs[start+i], e = m.encl.EcallCreatePartition(name, sealedGK, kept[start+i])
			}
			return e
		})
		if err != nil {
			return err
		}
		g.pages.ReleasePins()
	}

	for j, pid := range wrapped {
		g.idx.SetEnvelope(pid, ys[j], wrapHandles[j])
	}
	for i, pid := range rekey {
		g.installFresh(pid, kept[i], outs[i], up)
		if (i+1)%chunk == 0 {
			g.pages.ReleasePins()
		}
	}
	g.pages.ReleasePins()
	return nil
}

// sweepChunk is how many pages a streaming sweep holds at once: the width of
// the worker pool, capped by the page limit once pages can evict.
func (m *Manager) sweepChunk(g *groupState) int {
	chunk := m.Parallelism()
	if lim := g.pages.Limit(); g.pages.HasSource() && lim > 0 && chunk > lim {
		chunk = lim
	}
	return chunk
}

// RekeyGroup rotates the group key without membership changes (§A-G): every
// partition gets a fresh broadcast key, exactly as the paper's Algorithm 3
// sweep does. The per-partition O(1) re-keys stream across the worker pool
// in bounded chunks.
func (m *Manager) RekeyGroup(name string) (*Update, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	g.pages.ReleasePins()
	sealedGK, err := m.encl.EcallNewGroupKey(name)
	if err != nil {
		return nil, err
	}
	up := newUpdate(name)
	if err := m.rekeySweep(name, g, sealedGK, nil, false, up); err != nil {
		return nil, err
	}
	g.sealedGK = sealedGK
	return g.finish(up, true), nil
}

// Repartition forces a group re-creation per Algorithm 1 (normally driven
// by the occupancy heuristic inside RemoveUser).
func (m *Manager) Repartition(name string) (*Update, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	g.pages.ReleasePins()
	up := newUpdate(name)
	if err := m.repartitionLocked(name, g, up); err != nil {
		return nil, err
	}
	return g.finish(up, true), nil
}

// repartitionLocked rebuilds the group into dense partitions under a fresh
// group key and a fresh index — new partition IDs, a directory sized for the
// current membership — and rewrites up to match: the new records replace
// whatever was queued, and every old partition object and surplus directory
// bucket is deleted. The caller holds g.mu. The rebuild streams member chunks
// through the page cache, so even a full re-partition keeps only O(chunk)
// pages resident (the update itself necessarily holds every new record). On
// failure the old index is back in place and up is untouched, so the group
// stays operable with its previous crypto material.
func (m *Manager) repartitionLocked(name string, g *groupState, up *Update) error {
	oldIdx := g.idx
	members, err := oldIdx.Members() // sorted, the canonical re-pack order
	if err != nil {
		return err
	}
	sealedGK, err := m.encl.EcallNewGroupKey(name)
	if err != nil {
		return err
	}
	// The new index continues the old ID numbering, so the new partitions
	// are unknown to the page cache and to the store until this commits.
	g.idx = oldIdx.Repacked(len(members))
	var newPIDs []string
	fresh := newUpdate(name)
	undo := func() {
		g.idx = oldIdx
		for _, pid := range newPIDs {
			g.pages.Drop(pid)
		}
		g.pages.ReleasePins()
	}
	chunks := partition.Split(members, m.capacity)
	stride := m.sweepChunk(g)
	for start := 0; start < len(chunks); start += stride {
		end := start + stride
		if end > len(chunks) {
			end = len(chunks)
		}
		batch := chunks[start:end]
		pids := make([]string, len(batch))
		for i, cm := range batch {
			pids[i] = g.idx.NewPage()
			for _, u := range cm {
				if berr := g.idx.Bind(pids[i], u); berr != nil {
					undo()
					return berr
				}
			}
			newPIDs = append(newPIDs, pids[i])
		}
		outs := make([]*enclave.PartitionCrypto, len(batch))
		ferr := m.fanOut(len(batch), func(i int) (e error) {
			outs[i], e = m.encl.EcallCreatePartition(name, sealedGK, batch[i])
			return e
		})
		if ferr != nil {
			undo()
			return ferr
		}
		for i, pid := range pids {
			g.installFresh(pid, batch[i], outs[i], fresh)
		}
		g.pages.ReleasePins()
	}
	m.repartitions.Add(1)
	g.sealedGK = sealedGK
	up.Put = fresh.Put
	deleted := make(map[string]bool, len(up.Delete))
	for _, id := range up.Delete {
		deleted[id] = true
	}
	for e := range oldIdx.Entries() {
		g.pages.Drop(e.ID)
		if !deleted[e.ID] {
			up.Delete = append(up.Delete, e.ID)
		}
	}
	for i := g.idx.Fanout(); i < oldIdx.Fanout(); i++ {
		up.Delete = append(up.Delete, partition.BucketObject(i))
	}
	sort.Strings(up.Delete)
	return nil
}

// RestoreGroupPaged rebuilds a group's administrator-side state from the
// cloud — how an administrator whose local cache was lost (process restart,
// failover to another admin on the same platform) resumes managing a group.
// Only the group header (decoded into idx, with a fetch for its directory
// buckets installed) and the sealed group key load eagerly — O(partitions),
// not O(group) — and every directory bucket and partition page hydrates
// lazily on first touch. The sealed key opens only inside the same enclave
// code on the same platform, so all of this is safe to feed with bytes read
// from the honest-but-curious cloud.
func (m *Manager) RestoreGroupPaged(name string, idx *partition.Index, sealedGK []byte, fetch RecordFetch) error {
	if idx == nil || fetch == nil {
		return fmt.Errorf("core: restoring %s: nil index or fetch", name)
	}
	if idx.Capacity() != m.capacity {
		return fmt.Errorf("core: restoring %s: index capacity %d != manager capacity %d",
			name, idx.Capacity(), m.capacity)
	}
	pages := partition.NewPages(m.MaxResidentPages(), recordSource{fetch, m.capacity})
	g := &groupState{idx: idx, pages: pages, sealedGK: append([]byte(nil), sealedGK...)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.groups[name]; ok {
		return fmt.Errorf("%w: %s", ErrGroupExists, name)
	}
	m.groups[name] = g
	return nil
}

// SetPageSource installs the store-backed record fetch that lets the
// group's pages evict and rehydrate. Call it only once the group's records
// are durably applied — an evicted page rebuilds from whatever the fetch
// reads. Installing a source immediately trims the cache to the resident
// bound and restarts the high-water mark there: the phase before it
// (creation) is resident by necessity, and the bound speaks of what follows.
func (m *Manager) SetPageSource(name string, fetch RecordFetch) error {
	g, err := m.lockGroup(name)
	if err != nil {
		return err
	}
	defer g.mu.Unlock()
	g.pages.ReleasePins()
	g.pages.SetSource(recordSource{fetch, m.capacity})
	g.pages.ResetHighWater()
	return nil
}

// DropGroup forgets a group's administrator-side state without touching the
// cloud. Multi-admin deployments use it when ownership of a group moves to
// another administrator (lease lost or handed over) and when a stale local
// cache must be rebuilt from the cloud before retrying a conflicted apply.
// Dropping an unknown group is a no-op.
func (m *Manager) DropGroup(name string) {
	m.mu.Lock()
	g, ok := m.groups[name]
	if ok {
		delete(m.groups, name)
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	// Wait for any in-flight operation, then poison the state so a waiter
	// that raced the drop treats the group as gone.
	g.mu.Lock()
	g.invalid = true
	g.mu.Unlock()
}

// Groups returns the names of managed groups, sorted.
func (m *Manager) Groups() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.groups))
	for name := range m.groups {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasGroup reports whether the manager holds state for the group. Unlike
// Members it never materialises anything, so it is the right existence
// probe for arbitrarily large groups.
func (m *Manager) HasGroup(name string) bool {
	g, err := m.lockGroup(name)
	if err != nil {
		return false
	}
	g.mu.Unlock()
	return true
}

// Members returns a group's member list, sorted. Groups larger than
// MaxUnpagedMembers refuse the unpaged listing (ErrTooManyMembers); page
// through MembersPage instead.
func (m *Manager) Members(name string) ([]string, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	if n := g.idx.Len(); n > MaxUnpagedMembers {
		return nil, fmt.Errorf("%w: group %s has %d members (cap %d)",
			ErrTooManyMembers, name, n, MaxUnpagedMembers)
	}
	return g.idx.Members()
}

// MembersPage returns up to limit members strictly after the cursor, in
// sorted order. An empty cursor starts from the beginning; fewer than limit
// results means the listing is complete. Served from the member directory,
// which the first listing makes resident — no pages are hydrated.
func (m *Manager) MembersPage(name, after string, limit int) ([]string, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	return g.idx.MembersAfter(after, limit)
}

// PartitionCount returns |P| for a group.
func (m *Manager) PartitionCount(name string) (int, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return 0, err
	}
	defer g.mu.Unlock()
	return g.idx.PageCount(), nil
}

// MetadataSize returns the group's cryptographic metadata footprint in
// bytes — per partition the broadcast header (C1, C2), the wrapped group key
// yᵢ and the sealed re-wrap handle: what the paper's Figs. 2b and 7 account,
// plus the handle this system stores beside it. Answered from the index's
// envelopes without hydrating any page.
func (m *Manager) MetadataSize(name string) (int, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return 0, err
	}
	defer g.mu.Unlock()
	headerLen := m.encl.Scheme().HeaderLen()
	total := 0
	for e := range g.idx.Entries() {
		total += headerLen + len(e.Wrapped) + len(e.Handle)
	}
	return total, nil
}

// Records returns the current partition records of a group (e.g. to seed a
// storage backend or a late-joining mirror). This hydrates every page —
// O(group) by definition — so it is a seeding/debugging API, not an
// operational one.
func (m *Manager) Records(name string) (map[string]*PartitionRecord, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	out := make(map[string]*PartitionRecord, g.idx.PageCount())
	for e := range g.idx.Entries() {
		p, perr := g.pages.Get(e.ID)
		if perr != nil {
			return nil, perr
		}
		out[e.ID] = g.record(p)
	}
	return out, nil
}

// MarshalIndex returns the group header in its deterministic wire form — the
// bytes every Update carries as Header, and all a takeover decodes before it
// serves the group.
func (m *Manager) MarshalIndex(name string) ([]byte, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	return g.idx.Marshal(), nil
}

// Record returns the partition record covering one member — the single-page
// read behind decrypt sampling and client bootstraps. Exactly one page is
// hydrated.
func (m *Manager) Record(name, user string) (*PartitionRecord, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	pid, ok, err := g.idx.PageOf(user)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", partition.ErrNoSuchMember, user)
	}
	p, err := g.pages.Get(pid)
	if err != nil {
		return nil, err
	}
	return g.record(p), nil
}

// PageStats reports one group's page-cache counters.
type PageStats struct {
	// Resident is the number of pages currently in the cache.
	Resident int
	// HighWater is the peak residency since the last ResetGroupHighWater.
	HighWater int
	// Evictions counts pages displaced by the LRU policy.
	Evictions uint64
	// Limit is the cache bound (0 = unbounded).
	Limit int
}

// GroupPageStats returns the group's page-cache counters.
func (m *Manager) GroupPageStats(name string) (PageStats, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return PageStats{}, err
	}
	defer g.mu.Unlock()
	return PageStats{
		Resident:  g.pages.Resident(),
		HighWater: g.pages.HighWater(),
		Evictions: g.pages.Evictions(),
		Limit:     g.pages.Limit(),
	}, nil
}

// ResetGroupHighWater restarts the group's peak-residency measurement (the
// million-user benchmark resets it before asserting on a sweep). It marks an
// operation boundary: pins held by completed reads are released (the next
// mutating op would release them anyway) and the cache trims to its limit,
// so the new measurement starts from bounded residency.
func (m *Manager) ResetGroupHighWater(name string) error {
	g, err := m.lockGroup(name)
	if err != nil {
		return err
	}
	defer g.mu.Unlock()
	g.pages.ReleasePins()
	g.pages.ResetHighWater()
	return nil
}

// ResidentPages returns the total resident page count across all groups.
// Lock-free with respect to in-flight operations (it reads each cache's
// atomic mirror), so metric scrapes never stall behind a slow sweep.
func (m *Manager) ResidentPages() int {
	m.mu.Lock()
	gs := make([]*groupState, 0, len(m.groups))
	for _, g := range m.groups {
		gs = append(gs, g)
	}
	m.mu.Unlock()
	total := 0
	for _, g := range gs {
		total += g.pages.Resident()
	}
	return total
}

// PageEvictions returns the total LRU evictions across all groups, with the
// same lock-free guarantee as ResidentPages.
func (m *Manager) PageEvictions() uint64 {
	m.mu.Lock()
	gs := make([]*groupState, 0, len(m.groups))
	for _, g := range m.groups {
		gs = append(gs, g)
	}
	m.mu.Unlock()
	var total uint64
	for _, g := range gs {
		total += g.pages.Evictions()
	}
	return total
}
