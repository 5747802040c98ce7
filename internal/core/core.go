// Package core implements the IBBE-SGX group access-control system — the
// paper's primary contribution. It orchestrates the partitioning mechanism
// (§IV-C) over the enclave ECALL surface: Algorithms 1 (create group),
// 2 (add user) and 3 (remove user), the re-partitioning heuristic, group
// re-keying, and the client-side decryption path.
//
// The Manager is storage-agnostic: every mutating operation returns an
// Update describing which partition records to PUT and which to delete.
// The admin package applies updates to a cloud Store; benchmarks apply them
// to byte-counters only.
//
// Partition ciphertexts are mutually independent (§IV-C), so the Manager is
// a parallel partition engine: per-partition enclave work — encryption at
// group creation, re-keying on rotation, re-partitioning — fans out across a
// bounded worker pool, and groups are locked individually so
// membership operations on independent groups proceed concurrently.
//
// Group state is paged: each group keeps a compact partition.Index (the
// member→partition mapping, always resident) plus an LRU cache of
// partition.Pages hydrated on demand from PartitionRecords through a
// store-backed RecordFetch. Operations pin only the pages they touch, and
// the full-group sweeps (removal re-key, rotation, re-partitioning) stream
// in bounded chunks, so no operation needs more than O(pages touched)
// resident memory regardless of group size. Eviction is only enabled once a
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

	// repartitions counts occupancy-heuristic firings for replay reporting.
	repartitions atomic.Int64
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

// Update describes the storage effects of one membership operation: records
// to PUT (keyed by partition ID) and partition objects to delete.
type Update struct {
	Group  string
	Put    map[string]*PartitionRecord
	Delete []string
}

// newUpdate allocates an update for a group.
func newUpdate(group string) *Update {
	return &Update{Group: group, Put: make(map[string]*PartitionRecord)}
}

// RecordFetch loads one partition record from durable storage; it is how
// evicted pages rehydrate. The admin installs a store-backed fetch after a
// group's records are durably applied.
type RecordFetch func(partitionID string) (*PartitionRecord, error)

// recordSource adapts a RecordFetch to the partition.PageSource interface,
// keeping core free of any storage dependency.
type recordSource struct {
	fetch RecordFetch
}

func (s recordSource) LoadPage(id string) (*partition.Page, error) {
	rec, err := s.fetch(id)
	if err != nil {
		return nil, err
	}
	return pageForRecord(id, rec)
}

// pageCrypto returns the page's enclave material.
func pageCrypto(p *partition.Page) *enclave.PartitionCrypto {
	return p.Payload.(*enclave.PartitionCrypto)
}

// pageForRecord and recordForPage are the one place a record's fields map to
// a page's and back; both deep-copy, so pages and records never alias.
func pageForRecord(id string, rec *PartitionRecord) (*partition.Page, error) {
	if rec == nil || rec.CT == nil {
		return nil, fmt.Errorf("%w: record %s missing ciphertext", ErrBadRecord, id)
	}
	return &partition.Page{
		ID:      id,
		Members: append([]string(nil), rec.Members...),
		Payload: &enclave.PartitionCrypto{
			CT:         rec.CT.Clone(),
			WrappedGK:  append([]byte(nil), rec.WrappedGK...),
			WrapHandle: append([]byte(nil), rec.WrapHandle...),
		},
	}, nil
}

// recordForPage assembles the storage record for a resident page.
func recordForPage(p *partition.Page) *PartitionRecord {
	pc := pageCrypto(p)
	return &PartitionRecord{
		PartitionID: p.ID,
		Members:     append([]string(nil), p.Members...),
		CT:          pc.CT.Clone(),
		WrappedGK:   append([]byte(nil), pc.WrappedGK...),
		WrapHandle:  append([]byte(nil), pc.WrapHandle...),
	}
}

// install makes p its partition's current page: cached (and pinned), its
// key-envelope length — wrapped group key plus re-wrap handle, what
// MetadataSize sums — recorded in the index, and its record queued in up.
func (g *groupState) install(p *partition.Page, up *Update) {
	g.pages.Put(p)
	g.idx.SetWrapLen(p.ID, envelopeLen(pageCrypto(p)))
	up.Put[p.ID] = recordForPage(p)
}

// envelopeLen is the length of a partition's key envelope.
func envelopeLen(pc *enclave.PartitionCrypto) int {
	return len(pc.WrappedGK) + len(pc.WrapHandle)
}

// CreateGroup implements Algorithm 1: split members into fixed-size
// partitions, then — inside the enclave — draw the group key, build each
// partition's broadcast ciphertext in parallel, and wrap the group key per
// partition.
func (m *Manager) CreateGroup(name string, members []string) (*Update, error) {
	idx, err := partition.NewIndex(m.capacity)
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

	sealedGK, err := m.encl.EcallNewGroupKey(name)
	if err == nil {
		err = m.fanOut(len(created), func(i int) error {
			pc, e := m.encl.EcallCreatePartition(name, sealedGK, created[i].Members)
			if e != nil {
				return e
			}
			created[i].Payload = pc
			return nil
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
	for _, p := range created {
		g.install(p, up)
	}
	g.sealedGK = sealedGK
	return up, nil
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
// pages are hydrated, so a small batch on a huge group stays O(touched),
// not O(group).
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
		if seen[u] || g.idx.Contains(u) {
			return nil, fmt.Errorf("%w: %s", partition.ErrMemberExists, u)
		}
		seen[u] = true
	}
	if len(users) == 0 {
		return newUpdate(name), nil
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

	// Hydrate only the touched partitions and build each one's post-add
	// member list. Fresh partitions have no page yet; their joiners are
	// their full member list.
	type task struct {
		id     string
		fresh  bool
		page   *partition.Page // nil for fresh partitions
		newMem []string
	}
	ids := make([]string, 0, len(joiners))
	for id := range joiners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	tasks := make([]task, 0, len(ids))
	for _, id := range ids {
		t := task{id: id, fresh: freshParts[id]}
		if t.fresh {
			t.newMem = append([]string(nil), joiners[id]...)
		} else {
			p, perr := g.pages.Get(id)
			if perr != nil {
				rollback()
				return nil, perr
			}
			t.page = p
			t.newMem = append(append([]string(nil), p.Members...), joiners[id]...)
		}
		tasks = append(tasks, t)
	}

	// Enclave pass: one ECALL per touched partition, fanned out. A threshold
	// shard has no γ, so the O(1) ciphertext extension is unavailable; it
	// rebuilds each touched partition from its full member list via classic
	// encryption instead. Same records, different cost.
	hasMSK := m.encl.HasMasterSecret()
	outs := make([]*enclave.PartitionCrypto, len(tasks))
	newCTs := make([]*ibbe.Ciphertext, len(tasks))
	err = m.fanOut(len(tasks), func(i int) error {
		t := tasks[i]
		if t.fresh || !hasMSK {
			pc, e := m.encl.EcallCreatePartition(name, g.sealedGK, t.newMem)
			if e != nil {
				return e
			}
			outs[i] = pc
			return nil
		}
		ct, e := m.encl.EcallAddUsersToPartition(pageCrypto(t.page).CT, joiners[t.id])
		if e != nil {
			return e
		}
		newCTs[i] = ct
		return nil
	})
	if err != nil {
		rollback()
		return nil, err
	}

	up := newUpdate(name)
	for i, t := range tasks {
		pc := outs[i]
		if pc == nil { // ciphertext extension: bk, and with it yᵢ and the handle, is unchanged
			old := pageCrypto(t.page)
			pc = &enclave.PartitionCrypto{CT: newCTs[i], WrappedGK: old.WrappedGK, WrapHandle: old.WrapHandle}
		}
		g.install(&partition.Page{ID: t.id, Members: t.newMem, Payload: pc}, up)
	}
	return up, nil
}

// RemoveUser implements Algorithm 3: drop the user from her partition,
// generate a fresh group key inside the enclave, re-key her partition in
// O(1), publish the new key to every other partition, and push all affected
// records. The paper re-keys the other partitions too; here they keep their
// broadcast key — the revoked user never held it — and only their wrapped
// group key yᵢ changes (see rekeySweep; DisableRewrap selects the paper's
// sweep). When the occupancy heuristic fires, the group is re-partitioned
// (re-created per Algorithm 1).
func (m *Manager) RemoveUser(name, user string) (*Update, error) {
	return m.RemoveUsers(name, []string{user})
}

// RemoveUsers is the batched form of RemoveUser: all users leave under a
// single fresh group key, with exactly one pass per remaining partition — a
// partition that lost k members is re-keyed once (not k times), and
// untouched partitions are re-wrapped once each. The sweep streams over the
// partitions in bounded chunks, so resident memory stays O(chunk) even
// though the sweep itself is O(|P|).
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
		if !g.idx.Contains(u) {
			return nil, fmt.Errorf("%w: %s", partition.ErrNoSuchMember, u)
		}
	}
	if len(users) == 0 {
		return newUpdate(name), nil
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

	// Enclave pass: one sealed fresh group key, then the streaming sweep —
	// removal+re-key for partitions that lost members, re-wrap for the rest.
	sealedGK, err := m.encl.EcallNewGroupKey(name)
	if err != nil {
		rollbackIdx()
		return nil, err
	}
	up := newUpdate(name)
	undo, err := m.rekeySweep(name, g, sealedGK, removedBy, !m.DisableRewrap, up)
	if err != nil {
		undo()
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
		return m.repartitionLocked(name, g, up)
	}
	return up, nil
}

// rekeySweep publishes sealedGK to every non-empty partition of the group,
// streaming in chunks of at most min(parallelism, page limit) pages so the
// resident set stays bounded even though the sweep is O(|P|). removedBy
// names the users each partition loses; records for every surviving
// partition are merged into up.
//
// A partition that loses members is re-keyed with the removal. With rewrap
// set (a revocation), the partitions that lose nobody keep their broadcast
// key — the revoked users never held it — and only get a new yᵢ, one
// EcallRewrapPartitions per chunk: their CT and handle stay byte-identical.
// Without it (RekeyGroup, DisableRewrap), and for a record written before
// handles existed, they take the paper's per-partition re-key, which also
// returns a handle for the next sweep.
//
// Chunks commit as they complete: a processed page is immediately evictable
// because nothing revisits it within this operation, and the next operation
// on the group only starts after this update is applied. On error the
// returned undo restores the pre-sweep page state — by dropping the cache
// when a store source can rehydrate it, or from stashed copies when the
// group is purely resident; the caller restores index bindings and discards
// sealedGK.
func (m *Manager) rekeySweep(name string, g *groupState, sealedGK []byte, removedBy map[string][]string, rewrap bool, up *Update) (undo func(), err error) {
	pids := make([]string, 0, g.idx.PageCount())
	for _, pid := range g.idx.PageIDs() {
		if g.idx.Count(pid) > 0 {
			pids = append(pids, pid)
		}
	}
	hasMSK := m.encl.HasMasterSecret()
	paged := g.pages.HasSource()
	oldPages := make(map[string]*partition.Page) // resident-mode rollback
	oldWraps := make(map[string]int)
	undo = func() {
		if paged {
			g.pages.DropAll()
		} else {
			for _, p := range oldPages {
				g.pages.Put(p)
			}
		}
		for pid, w := range oldWraps {
			g.idx.SetWrapLen(pid, w)
		}
		g.pages.ReleasePins()
	}

	chunk := m.Parallelism()
	if lim := g.pages.Limit(); paged && lim > 0 && chunk > lim {
		chunk = lim
	}
	if chunk < 1 {
		chunk = 1
	}
	for start := 0; start < len(pids); start += chunk {
		end := start + chunk
		if end > len(pids) {
			end = len(pids)
		}
		batch := pids[start:end]
		cur := make([]*partition.Page, len(batch))
		outs := make([]*enclave.PartitionCrypto, len(batch))
		kept := make([][]string, len(batch))
		var rekey, wrapped []int // positions in batch, by path
		var handles [][]byte
		for i, pid := range batch {
			p, gerr := g.pages.Get(pid)
			if gerr != nil {
				return undo, gerr
			}
			cur[i], kept[i] = p, p.Members
			if h := pageCrypto(p).WrapHandle; rewrap && len(removedBy[pid]) == 0 && len(h) > 0 {
				wrapped = append(wrapped, i)
				handles = append(handles, h)
			} else {
				rekey = append(rekey, i)
			}
		}
		if len(wrapped) > 0 {
			ys, werr := m.encl.EcallRewrapPartitions(name, sealedGK, handles)
			if werr != nil {
				return undo, werr
			}
			for j, i := range wrapped {
				old := pageCrypto(cur[i])
				outs[i] = &enclave.PartitionCrypto{CT: old.CT, WrappedGK: ys[j], WrapHandle: old.WrapHandle}
			}
		}
		ferr := m.fanOut(len(rekey), func(j int) error {
			i := rekey[j]
			p := cur[i]
			old := pageCrypto(p).CT
			rem := removedBy[p.ID]
			if len(rem) == 0 {
				pc, e := m.encl.EcallRekeyPartition(name, sealedGK, old)
				outs[i] = pc
				return e
			}
			gone := make(map[string]bool, len(rem))
			for _, u := range rem {
				gone[u] = true
			}
			keep := make([]string, 0, len(p.Members)-len(rem))
			for _, u := range p.Members {
				if !gone[u] {
					keep = append(keep, u)
				}
			}
			kept[i] = keep
			// Threshold shards cannot divide (γ+H(id)) terms out of a
			// ciphertext; partitions that lost members are rebuilt
			// classically from the post-removal member list instead.
			var (
				pc *enclave.PartitionCrypto
				e  error
			)
			if hasMSK {
				pc, e = m.encl.EcallRemoveUsersFromPartition(name, sealedGK, old, rem)
			} else {
				pc, e = m.encl.EcallCreatePartition(name, sealedGK, keep)
			}
			outs[i] = pc
			return e
		})
		if ferr != nil {
			return undo, ferr
		}
		for i, pid := range batch {
			if _, ok := oldWraps[pid]; !ok {
				oldWraps[pid] = g.idx.WrapLen(pid)
				if !paged {
					oldPages[pid] = cur[i]
				}
			}
			g.install(&partition.Page{ID: pid, Members: kept[i], Payload: outs[i]}, up)
		}
		g.pages.ReleasePins()
	}
	return undo, nil
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
	undo, err := m.rekeySweep(name, g, sealedGK, nil, false, up)
	if err != nil {
		undo()
		return nil, err
	}
	g.sealedGK = sealedGK
	return up, nil
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
	return m.repartitionLocked(name, g, newUpdate(name))
}

// repartitionLocked rebuilds the partitions and merges the result into up,
// deleting every partition object that no longer exists. The caller holds
// g.mu. The rebuild streams member chunks through the page cache, so even a
// full re-partition keeps only O(chunk) pages resident (the update itself
// necessarily holds every new record). On enclave failure the old index is
// restored, so the group stays operable with its previous crypto material.
func (m *Manager) repartitionLocked(name string, g *groupState, up *Update) (*Update, error) {
	m.repartitions.Add(1)
	oldIdx := g.idx
	oldIDs := oldIdx.PageIDs()
	members := oldIdx.Members() // sorted, the canonical re-pack order
	paged := g.pages.HasSource()

	sealedGK, err := m.encl.EcallNewGroupKey(name)
	if err != nil {
		return nil, err
	}
	// The new index continues the old ID numbering (ResetPages keeps the
	// counter), so old and new partition objects never collide in the store.
	newIdx := oldIdx.Clone()
	newIdx.ResetPages()
	g.idx = newIdx
	var newPIDs []string
	fresh := newUpdate(name)
	undo := func() {
		g.idx = oldIdx
		if paged {
			g.pages.DropAll()
		} else {
			for _, pid := range newPIDs {
				g.pages.Drop(pid)
			}
		}
		g.pages.ReleasePins()
	}
	chunks := partition.Split(members, m.capacity)
	stride := m.Parallelism()
	if lim := g.pages.Limit(); paged && lim > 0 && stride > lim {
		stride = lim
	}
	if stride < 1 {
		stride = 1
	}
	for start := 0; start < len(chunks); start += stride {
		end := start + stride
		if end > len(chunks) {
			end = len(chunks)
		}
		batch := chunks[start:end]
		pagesB := make([]*partition.Page, len(batch))
		for i, cm := range batch {
			pid := g.idx.NewPage()
			for _, u := range cm {
				if berr := g.idx.Bind(pid, u); berr != nil {
					undo()
					return nil, berr
				}
			}
			newPIDs = append(newPIDs, pid)
			pagesB[i] = &partition.Page{ID: pid, Members: cm}
		}
		ferr := m.fanOut(len(batch), func(i int) error {
			pc, e := m.encl.EcallCreatePartition(name, sealedGK, pagesB[i].Members)
			if e != nil {
				return e
			}
			pagesB[i].Payload = pc
			return nil
		})
		if ferr != nil {
			undo()
			return nil, ferr
		}
		for _, p := range pagesB {
			g.install(p, fresh)
		}
		g.pages.ReleasePins()
	}
	g.sealedGK = sealedGK
	for _, pid := range oldIDs {
		g.pages.Drop(pid)
	}
	// Replace queued puts wholesale: the new layout supersedes them.
	up.Put = fresh.Put
	deleted := make(map[string]bool, len(up.Delete))
	for _, id := range up.Delete {
		deleted[id] = true
	}
	for _, id := range oldIDs {
		if !deleted[id] {
			up.Delete = append(up.Delete, id)
		}
	}
	sort.Strings(up.Delete)
	return up, nil
}

// RestoreGroup rebuilds a group's administrator-side state from cloud
// records and the sealed group key — how an administrator whose local cache
// was lost (process restart, failover to another admin on the same
// platform) resumes managing a group. The sealed key opens only inside the
// same enclave code on the same platform, so this is safe to feed with
// bytes read from the honest-but-curious cloud. All records become resident
// pages; for the streaming O(index) restore path see RestoreGroupPaged.
func (m *Manager) RestoreGroup(name string, recs map[string]*PartitionRecord, sealedGK []byte) error {
	ids := make([]string, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	idx, err := partition.NewIndex(m.capacity)
	if err != nil {
		return err
	}
	pages := partition.NewPages(m.MaxResidentPages(), nil)
	for _, id := range ids {
		p, err := pageForRecord(id, recs[id])
		if err != nil {
			return err
		}
		if err := idx.AddExistingPage(id, p.Members); err != nil {
			return fmt.Errorf("core: restoring %s: %w", name, err)
		}
		idx.SetWrapLen(id, envelopeLen(pageCrypto(p)))
		pages.Put(p)
	}
	pages.ReleasePins()
	g := &groupState{idx: idx, pages: pages, sealedGK: append([]byte(nil), sealedGK...)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.groups[name]; ok {
		return fmt.Errorf("%w: %s", ErrGroupExists, name)
	}
	m.groups[name] = g
	return nil
}

// RestoreGroupPaged is the streaming restore: only the compact member index
// and the sealed group key load eagerly — O(index), not O(group) — and
// every partition page hydrates lazily through fetch on first touch. This
// is how a takeover starts serving a million-user group without reading a
// million-user's worth of records first.
func (m *Manager) RestoreGroupPaged(name string, idx *partition.Index, sealedGK []byte, fetch RecordFetch) error {
	if idx == nil || fetch == nil {
		return fmt.Errorf("core: restoring %s: nil index or fetch", name)
	}
	if idx.Capacity() != m.capacity {
		return fmt.Errorf("core: restoring %s: index capacity %d != manager capacity %d",
			name, idx.Capacity(), m.capacity)
	}
	pages := partition.NewPages(m.MaxResidentPages(), recordSource{fetch})
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
// bound.
func (m *Manager) SetPageSource(name string, fetch RecordFetch) error {
	g, err := m.lockGroup(name)
	if err != nil {
		return err
	}
	defer g.mu.Unlock()
	g.pages.ReleasePins()
	g.pages.SetSource(recordSource{fetch})
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

// SealedGroupKey returns the group's sealed key blob, which administrators
// persist alongside the partition records (Algorithm 1 line 7 stores the
// sealed gk). It is opaque outside the enclave.
func (m *Manager) SealedGroupKey(name string) ([]byte, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	return append([]byte(nil), g.sealedGK...), nil
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
	return g.idx.Members(), nil
}

// MembersPage returns up to limit members strictly after the cursor, in
// sorted order. An empty cursor starts from the beginning; fewer than limit
// results means the listing is complete. Served from the resident index —
// no pages are hydrated.
func (m *Manager) MembersPage(name, after string, limit int) ([]string, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	return g.idx.MembersAfter(after, limit), nil
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
// recorded envelope lengths without hydrating any page.
func (m *Manager) MetadataSize(name string) (int, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return 0, err
	}
	defer g.mu.Unlock()
	headerLen := m.encl.Scheme().HeaderLen()
	total := 0
	for _, pid := range g.idx.PageIDs() {
		total += headerLen + g.idx.WrapLen(pid)
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
	for _, pid := range g.idx.PageIDs() {
		p, perr := g.pages.Get(pid)
		if perr != nil {
			return nil, perr
		}
		out[pid] = recordForPage(p)
	}
	return out, nil
}

// MarshalIndex returns the group's member index in its deterministic wire
// form — the object the admin persists alongside the records so a takeover
// restores in O(index) instead of O(group).
func (m *Manager) MarshalIndex(name string) ([]byte, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	return g.idx.Marshal()
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
	pid, ok := g.idx.PageOf(user)
	if !ok {
		return nil, fmt.Errorf("%w: %s", partition.ErrNoSuchMember, user)
	}
	p, err := g.pages.Get(pid)
	if err != nil {
		return nil, err
	}
	return recordForPage(p), nil
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
