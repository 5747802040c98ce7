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
// Partition ciphertexts are mutually independent (§IV-C), so every mutator is
// one pipeline over a per-partition task list. The plan validates the
// operation and places it in the index; it yields the tasks — each a
// partition to create, extend or re-key — and, for a revocation, the
// partitions that only take the new group key. Compute runs one ECALL per
// task across a bounded worker pool and installs nothing. Install cannot
// fail, and yields the Update. A failure before install reverts the plan's
// index changes, so a failed operation leaves its group as it was. Groups are
// locked individually, so operations on independent groups run concurrently.
//
// Group state is paged: each group keeps a partition.Index (the group header:
// per-partition occupancy, wrapped group key and re-wrap handle, always
// resident; behind it the hashed member directory, loaded bucket by bucket on
// first use) plus an LRU cache of partition.Pages (roster and ciphertext)
// hydrated on demand from PartitionRecords through a store-backed
// RecordFetch. An operation hydrates only the pages its tasks need, and no
// operation writes more than O(change) objects. Eviction is only enabled once a
// RecordFetch is installed (SetPageSource / RestoreGroupPaged); without one
// — pure in-memory use, as in tests and benchmarks driving the Manager
// directly — every page stays resident and behaviour matches the historic
// fully-materialised table.
//
// The pin rule: a page is pinned only while the compute chunk that hydrated
// it runs. Compute streams the tasks in chunks of at most min(parallelism,
// bound) pages and unpins each chunk before hydrating the next; install
// enters the new pages unpinned, and reads pin nothing. So no operation holds
// more than the bound resident. An installed page may be evicted before its
// update is applied; nothing rehydrates it before then, because an operation
// visits each partition once, reads never enter pages into the cache, and
// the admin starts the group's next operation only once this one's update is
// applied.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
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
// Operations stream their partitions in chunks no larger than the bound, so
// none holds more than the bound resident.
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
	// every operation that changes anything rewrites. It is nil for an
	// operation that changed nothing (an empty batch): that update needs no
	// commit.
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
// buckets the operation dirtied and, unless the operation changed nothing,
// the header.
func (g *groupState) finish(up *Update) *Update {
	up.Buckets = g.idx.TakeDirty()
	if len(up.Put) > 0 || len(up.Delete) > 0 || len(up.Buckets) > 0 || up.SealedGK != nil {
		up.Header = g.idx.Marshal()
	}
	sort.Strings(up.Delete)
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
// checks its length against the header's count (see compute).
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

// taskKind is what a task does to its partition.
type taskKind uint8

const (
	// create builds the partition afresh from its roster: Algorithm 1, and
	// Algorithm 2's new-partition arm.
	create taskKind = iota
	// extend adds joiners and keeps the broadcast key: Algorithm 2's
	// existing-partition arm.
	extend
	// rekey draws a fresh broadcast key, dropping any leavers: Algorithm 3
	// and §A-G.
	rekey
)

// task is one partition's share of an operation: one ECALL in compute, one
// record in install.
type task struct {
	id    string
	kind  taskKind
	users []string // create: the roster; extend: the joiners; rekey: the leavers

	// Set by compute.
	roster []string                 // the post-op member list
	pc     *enclave.PartitionCrypto // the new ciphertext and envelope
}

// rosterFrom is the task's post-op member list, given its partition's
// current one.
func (t *task) rosterFrom(members []string) []string {
	switch {
	case t.kind == extend:
		return append(slices.Clone(members), t.users...)
	case len(t.users) == 0:
		return members
	}
	gone := make(map[string]bool, len(t.users))
	for _, u := range t.users {
		gone[u] = true
	}
	return slices.DeleteFunc(slices.Clone(members), func(u string) bool { return gone[u] })
}

// plan is one operation on one group as decided before any ECALL.
type plan struct {
	name string
	g    *groupState
	// idx is the index the plan writes: the group's own, changed in place
	// and logged so revert can undo it, or for a layout a fresh one, which
	// install swaps in for replaces.
	idx, replaces *partition.Index
	log           []change
	newKey        bool                  // draw a fresh group key
	tasks         []task                // one ECALL each
	rewrap        []partition.PageEntry // take the new key only, in one EcallRewrapPartitions
	emptied       []string              // dropped at install
	grow          bool                  // double the directory at install

	// Set by compute.
	sealedGK []byte
	ys       [][]byte // rewrap's new wrapped keys, in order
}

// change is one logged index edit of a plan: a bind, an unbind, or (user
// "") a partition opened.
type change struct {
	pid, user string
	bound     bool
}

// revert is the one rollback: it undoes the plan's logged index changes,
// newest first, and clears the buckets they dirtied. Every bucket they
// touched is resident, so undoing cannot fail. A layout's fresh index is
// simply never installed.
func (p *plan) revert() {
	for i := len(p.log) - 1; i >= 0; i-- {
		c := p.log[i]
		var err error
		switch {
		case c.user == "":
			p.idx.DropPage(c.pid)
		case c.bound:
			_, err = p.idx.Unbind(c.user)
		default:
			err = p.idx.Bind(c.pid, c.user)
		}
		if err != nil {
			panic(fmt.Sprintf("core: reverting an operation on %s: %v", p.name, err))
		}
	}
	p.idx.ClearDirty()
}

// sweep plans a fresh group key for every partition. lost names the users
// each partition loses. A partition emptied is dropped. With rewrap set (a
// revocation), a partition that loses nobody keeps its broadcast key — the
// revoked users never held it — and only takes a new yᵢ, written to the
// header: its page is not touched. Every other partition is re-keyed.
func (p *plan) sweep(lost map[string][]string, rewrap bool) {
	p.newKey = true
	for e := range p.idx.Entries() {
		switch {
		case e.Count == 0:
			if lost[e.ID] != nil {
				p.emptied = append(p.emptied, e.ID)
			}
		case rewrap && lost[e.ID] == nil:
			p.rewrap = append(p.rewrap, e)
		default:
			p.tasks = append(p.tasks, task{id: e.ID, kind: rekey, users: lost[e.ID]})
		}
	}
}

// planLayout plans members' dense layout into the fresh index idx under a
// fresh group key: capacity-sized partitions in the given order, each a
// create task. It is Algorithm 1 and the re-partitioning alike. Nothing is
// logged: on failure idx is discarded.
func (m *Manager) planLayout(name string, g *groupState, idx *partition.Index, members []string) (*plan, error) {
	p := &plan{name: name, g: g, idx: idx, newKey: true}
	for _, chunk := range partition.Split(members, m.capacity) {
		pid := idx.NewPage()
		for _, u := range chunk {
			if err := idx.Bind(pid, u); err != nil {
				return nil, err
			}
		}
		p.tasks = append(p.tasks, task{id: pid, kind: create, users: chunk})
	}
	return p, nil
}

// run takes a plan through compute and install. A plan that fails to compute
// is reverted, and the group is as it was.
func (m *Manager) run(p *plan, up *Update) error {
	if err := m.compute(p); err != nil {
		p.revert()
		return err
	}
	p.g.install(p, up)
	return nil
}

// compute runs a plan's ECALLs and installs nothing: a fresh group key when
// the plan draws one, one EcallRewrapPartitions for the partitions that only
// take it, then one ECALL per task. The tasks stream through fanOut in
// chunks. While the group cannot evict, the chunk is every task, so creation
// is a single fan-out. Otherwise a chunk is at most min(parallelism, bound)
// tasks, whose pages are hydrated and pinned before its fan-out and unpinned
// after it.
//
// Per task, compute derives the post-op roster and checks it against the
// header's count (roster and count live in different objects, and an
// operation must not build on a pair that disagrees), then makes the one
// ECALL that yields the partition's new ciphertext and envelope. An enclave
// with the master secret extends and re-keys from the exponents the
// partition's handle seals. A threshold shard has no γ, so it cannot
// multiply or divide (γ+H(id)) terms into a ciphertext: it re-keys a
// partition that lost nobody from its ciphertext and rebuilds every other one
// from its roster by classic encryption. Same records, different cost.
func (m *Manager) compute(p *plan) (err error) {
	pages := p.g.pages
	defer pages.ReleasePins()
	p.sealedGK = p.g.sealedGK
	if p.newKey {
		if p.sealedGK, err = m.encl.EcallNewGroupKey(p.name); err != nil {
			return err
		}
	}
	if len(p.rewrap) > 0 {
		handles := make([][]byte, len(p.rewrap))
		for i, e := range p.rewrap {
			handles[i] = e.Handle
		}
		if p.ys, err = m.encl.EcallRewrapPartitions(p.name, p.sealedGK, handles); err != nil {
			return err
		}
	}
	hasMSK := m.encl.HasMasterSecret()
	ecall := func(t *task, page *partition.Page) (err error) {
		t.roster = t.users
		if page != nil {
			t.roster = t.rosterFrom(page.Members)
			if n := p.idx.Count(t.id); len(t.roster) != n {
				return fmt.Errorf("%w: %s has %d members, the group header counts %d", ErrBadRecord, t.id, len(t.roster), n)
			}
		}
		wrapped, handle := p.idx.Envelope(t.id)
		switch {
		case t.kind == extend && hasMSK:
			// bk, and with it yᵢ, is unchanged; the handle now seals the grown Π.
			t.pc = &enclave.PartitionCrypto{WrappedGK: wrapped}
			t.pc.CT, t.pc.WrapHandle, err = m.encl.EcallAddUsersWithHandle(p.name, pageCT(page), handle, t.users)
		case t.kind == rekey && hasMSK:
			t.pc, err = m.encl.EcallRekeyWithHandle(p.name, p.sealedGK, handle, t.users)
		case t.kind == rekey && len(t.users) == 0:
			t.pc, err = m.encl.EcallRekeyPartition(p.name, p.sealedGK, pageCT(page))
		default:
			t.pc, err = m.encl.EcallCreatePartition(p.name, p.sealedGK, t.roster)
		}
		return err
	}
	chunk := len(p.tasks)
	if lim := pages.Limit(); pages.HasSource() && lim > 0 {
		chunk = min(m.Parallelism(), lim)
	}
	for start := 0; start < len(p.tasks); start += chunk {
		cur := p.tasks[start:min(start+chunk, len(p.tasks))]
		hydrated := make([]*partition.Page, len(cur))
		for i := range cur {
			if cur[i].kind != create {
				if hydrated[i], err = pages.Get(cur[i].id); err != nil {
					return err
				}
			}
		}
		if err = m.fanOut(len(cur), func(i int) error { return ecall(&cur[i], hydrated[i]) }); err != nil {
			return err
		}
		pages.ReleasePins()
	}
	return nil
}

// install makes a computed plan the group's state and writes it into up. It
// cannot fail. New pages enter the cache unpinned (see the pin rule).
func (g *groupState) install(p *plan, up *Update) {
	if old := p.replaces; old != nil {
		// A layout replaces every partition: the update's records of the old
		// ones give way, and their objects and any surplus bucket go.
		clear(up.Put)
		for e := range old.Entries() {
			g.pages.Drop(e.ID)
			up.Delete = append(up.Delete, e.ID)
		}
		for i := p.idx.Fanout(); i < old.Fanout(); i++ {
			up.Delete = append(up.Delete, partition.BucketObject(i))
		}
	}
	g.idx = p.idx
	for j, e := range p.rewrap {
		g.idx.SetEnvelope(e.ID, p.ys[j], e.Handle)
	}
	for _, t := range p.tasks {
		g.idx.SetEnvelope(t.id, t.pc.WrappedGK, t.pc.WrapHandle)
		page := &partition.Page{ID: t.id, Members: t.roster, Payload: t.pc.CT}
		g.pages.Put(page)
		up.Put[t.id] = g.record(page)
	}
	for _, id := range p.emptied {
		g.idx.DropPage(id)
		g.pages.Drop(id)
		up.Delete = append(up.Delete, id)
	}
	if p.grow {
		g.idx.Grow()
	}
	if p.newKey {
		g.sealedGK = p.sealedGK
		up.SealedGK = append([]byte(nil), p.sealedGK...)
	}
}

// mutate runs one operation on a group under its lock and closes its update.
func (m *Manager) mutate(name string, op func(g *groupState, up *Update) error) (*Update, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	up := newUpdate(name)
	if err := op(g, up); err != nil {
		return nil, err
	}
	return g.finish(up), nil
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
	g := &groupState{idx: idx, pages: partition.NewPages(m.MaxResidentPages(), nil)}
	p, err := m.planLayout(name, g, idx, members)
	if err != nil {
		return nil, err
	}
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

	up := newUpdate(name)
	if err := m.run(p, up); err != nil {
		g.invalid = true
		m.mu.Lock()
		delete(m.groups, name)
		m.mu.Unlock()
		return nil, err
	}
	return g.finish(up), nil
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
// index is reverted and no crypto material changes. Only the touched
// pages and directory buckets are hydrated and written, so a small batch on
// a huge group stays O(touched), not O(group).
func (m *Manager) AddUsers(name string, users []string) (*Update, error) {
	return m.mutate(name, func(g *groupState, up *Update) error {
		p, err := m.planAdd(name, g, users)
		if err != nil {
			return err
		}
		return m.run(p, up)
	})
}

// planAdd places the joiners: random open partitions first, then fresh
// ones. A partition opened by this batch keeps absorbing later users of the
// batch, so n overflow joins open ⌈n/capacity⌉ partitions, not n. A
// directory the adds outgrow is doubled at install; the part of that which
// can fail — loading every bucket — happens here.
func (m *Manager) planAdd(name string, g *groupState, users []string) (*plan, error) {
	seen := make(map[string]bool, len(users))
	for _, u := range users {
		has, err := g.idx.Contains(u)
		if err != nil {
			return nil, err
		}
		if seen[u] || has {
			return nil, fmt.Errorf("%w: %s", partition.ErrMemberExists, u)
		}
		seen[u] = true
	}
	p := &plan{name: name, g: g, idx: g.idx}
	at := make(map[string]int) // partition ID → its task
	for _, u := range users {
		m.rngMu.Lock()
		pid, ok := g.idx.PickOpen(m.rng)
		m.rngMu.Unlock()
		kind := extend
		if !ok {
			pid, kind = g.idx.NewPage(), create
			p.log = append(p.log, change{pid: pid, bound: true})
		}
		if err := g.idx.Bind(pid, u); err != nil {
			p.revert()
			return nil, err
		}
		p.log = append(p.log, change{pid, u, true})
		i, ok := at[pid]
		if !ok {
			i, at[pid] = len(p.tasks), len(p.tasks)
			p.tasks = append(p.tasks, task{id: pid, kind: kind})
		}
		p.tasks[i].users = append(p.tasks[i].users, u)
	}
	slices.SortFunc(p.tasks, func(a, b task) int { return strings.Compare(a.id, b.id) })
	if p.grow = g.idx.NeedsGrow(); p.grow {
		if err := g.idx.LoadAll(); err != nil {
			p.revert()
			return nil, err
		}
	}
	return p, nil
}

// RemoveUser implements Algorithm 3: drop the user from her partition,
// generate a fresh group key inside the enclave, re-key her partition in
// O(1), publish the new key to every other partition, and push all affected
// objects. The paper re-keys the other partitions too; here they keep their
// broadcast key — the revoked user never held it — and only their wrapped
// group key yᵢ changes, in the group header (see sweep; DisableRewrap
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
	return m.mutate(name, func(g *groupState, up *Update) error {
		seen := make(map[string]bool, len(users))
		for _, u := range users {
			if seen[u] {
				return fmt.Errorf("core: duplicate user in removal batch: %s", u)
			}
			seen[u] = true
			has, err := g.idx.Contains(u)
			if err != nil {
				return err
			}
			if !has {
				return fmt.Errorf("%w: %s", partition.ErrNoSuchMember, u)
			}
		}
		if len(users) == 0 {
			return nil
		}
		// A partition emptied here stays registered (count 0) until install,
		// so a revert can rebind every user.
		p := &plan{name: name, g: g, idx: g.idx}
		lost := make(map[string][]string)
		for _, u := range users {
			pid, err := g.idx.Unbind(u)
			if err != nil {
				p.revert()
				return err
			}
			p.log = append(p.log, change{pid, u, false})
			lost[pid] = append(lost[pid], u)
		}
		p.sweep(lost, !m.DisableRewrap)
		if err := m.run(p, up); err != nil {
			return err
		}
		if !m.DisableRepartition && g.idx.NeedsRepartition() && g.idx.Len() > 0 {
			// The removal stands on its own: a re-partition that fails leaves
			// the old layout in place, counted, and the heuristic fires again on
			// the next removal.
			if err := m.repartition(name, g, up); err != nil {
				m.repartitionFailures.Add(1)
			}
		}
		return nil
	})
}

// RekeyGroup rotates the group key without membership changes (§A-G): every
// partition gets a fresh broadcast key, exactly as the paper's Algorithm 3
// sweep does.
func (m *Manager) RekeyGroup(name string) (*Update, error) {
	return m.mutate(name, func(g *groupState, up *Update) error {
		p := &plan{name: name, g: g, idx: g.idx}
		p.sweep(nil, false)
		return m.run(p, up)
	})
}

// Repartition forces a group re-creation per Algorithm 1 (normally driven
// by the occupancy heuristic inside RemoveUser).
func (m *Manager) Repartition(name string) (*Update, error) {
	return m.mutate(name, func(g *groupState, up *Update) error {
		return m.repartition(name, g, up)
	})
}

// repartition rebuilds the group as a dense layout of its sorted members
// under a fresh group key and a fresh index: new partition IDs, continuing
// the old numbering so that old and new objects never collide, and a
// directory sized for the current membership. Install deletes every old
// partition object and surplus directory bucket, and replaces whatever
// records up held. On failure the group keeps its old layout and up is
// untouched.
func (m *Manager) repartition(name string, g *groupState, up *Update) error {
	members, err := g.idx.Members()
	if err != nil {
		return err
	}
	p, err := m.planLayout(name, g, g.idx.Repacked(len(members)), members)
	if err != nil {
		return err
	}
	p.replaces = g.idx
	if err := m.run(p, up); err != nil {
		return err
	}
	m.repartitions.Add(1)
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
// storage backend or a late-joining mirror). It reads every page — O(group)
// by definition — so it is a seeding/debugging API, not an operational one.
// Like Record, it leaves the page cache as it was.
func (m *Manager) Records(name string) (map[string]*PartitionRecord, error) {
	g, err := m.lockGroup(name)
	if err != nil {
		return nil, err
	}
	defer g.mu.Unlock()
	out := make(map[string]*PartitionRecord, g.idx.PageCount())
	for e := range g.idx.Entries() {
		p, perr := g.pages.Read(e.ID)
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
// read behind decrypt sampling and client bootstraps. A resident page is
// served from the cache; any other is read straight from the page source
// without entering the cache, so a read never pins, inserts or evicts.
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
	p, err := g.pages.Read(pid)
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

// ResetGroupHighWater restarts the group's peak-residency measurement at the
// current residency (the million-user benchmark resets it before asserting
// on a sweep). Between operations nothing is pinned and the cache is within
// its bound, so the new measurement starts from bounded residency.
func (m *Manager) ResetGroupHighWater(name string) error {
	g, err := m.lockGroup(name)
	if err != nil {
		return err
	}
	defer g.mu.Unlock()
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
