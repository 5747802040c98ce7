package benchmark

import (
	"crypto/ecdh"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/storage"
	"github.com/ibbesgx/ibbesgx/internal/trace"
)

// MillionUserRow is one phase of the paged-manager scenario sweep: the
// workload of trace.NewWorkload (Zipf-sized groups, flash-crowd joins, a
// mass revocation of the largest group, diurnal churn) replayed through a
// live 2-shard cluster whose managers run with a bounded resident-page
// cache. The memory columns are the tentpole claim: the largest group's
// peak page residency must stay at the configured bound — O(partition)
// memory per operation — even while the whole group is swept, and the heap
// peak stays flat instead of scaling with the total population.
type MillionUserRow struct {
	Phase string `json:"phase"`
	// Ops counts admin requests (batched joins/revocations count once per
	// request); FailedOps must be zero for the row to be acceptable.
	Ops       int `json:"ops"`
	FailedOps int `json:"failed_ops"`
	// Decrypts samples the read path after the phase: members of the
	// touched groups fetch their single partition record (no O(group)
	// listing) and derive the group key.
	Decrypts       int `json:"decrypts"`
	FailedDecrypts int `json:"failed_decrypts"`

	Elapsed   time.Duration `json:"elapsed_ns"`
	OpsPerSec float64       `json:"ops_per_sec"`

	// ResidentPagesPeak is the largest group's page-cache high-water mark
	// during the phase (reset at the phase boundary); MaxResidentLimit is
	// the configured bound it must respect.
	ResidentPagesPeak int `json:"resident_pages_peak"`
	MaxResidentLimit  int `json:"max_resident_limit"`
	// Evictions is the cluster-wide page evictions the phase caused.
	Evictions uint64 `json:"evictions_total"`
	// PeakHeapBytes is the peak Go heap in use observed during the phase
	// (sampled; the process-RSS proxy available without cgo).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// millionUserDecryptSamples is the per-phase read-path sample count.
const millionUserDecryptSamples = 16

// RunMillionUser replays the multi-group scenario suite on a live 2-shard
// cluster with paged group state and returns one row per phase. It fails —
// rather than reporting a degraded row — when a phase breaks one of the
// sweep's exact properties (see checkMillionUser): those are the acceptance
// properties, not measurements.
func RunMillionUser(cfg Config) ([]MillionUserRow, error) {
	wl, err := trace.NewWorkload(trace.WorkloadConfig{
		Users:          cfg.WLUsers,
		Groups:         cfg.WLGroups,
		FlashFrac:      0.1,
		RevocationFrac: 0.3,
		DiurnalOps:     cfg.WLDiurnalOps,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	mem := storage.NewMemStore(storage.Latency{})
	c, err := cluster.New(cluster.Options{
		Shards:           2,
		Capacity:         cfg.Capacity,
		Params:           cfg.Params,
		Store:            mem,
		LeaseTTL:         10 * time.Minute,
		Seed:             cfg.Seed,
		Workers:          4,
		MaxResidentPages: cfg.MaxResidentPages,
	})
	if err != nil {
		return nil, err
	}

	// Batch size for joins and revocations: one admin request touches at
	// most MaxResidentPages pages, so batching at capacity×bound members
	// keeps even the bulk-load phases inside the residency budget.
	chunk := cfg.Capacity * cfg.MaxResidentPages
	if chunk <= 0 {
		chunk = 4096
	}

	// Live membership model mirroring the replay (phases apply fully
	// before sampling, so the model is exact regardless of replay order).
	model := newWlModel(wl)
	samplers := newDecryptSamplers(c)
	rng := mrand.New(mrand.NewSource(cfg.Seed + 77))

	heap := newHeapWatch()
	defer heap.stop()

	rows := make([]MillionUserRow, 0, len(wl.Phases)+1)
	largest := wl.Largest()

	// runPhase replays one phase, then folds its ops into the membership
	// model BEFORE sampling — revoked members must not be sampled.
	runPhase := func(name string, phaseOps []trace.WorkloadOp, replay func() (ops, failed int, err error)) error {
		// Phase boundary: restart the largest group's residency
		// measurement and the heap peak, snapshot the eviction counters.
		if mgr := ownerManager(c, largest); mgr != nil {
			if err := mgr.ResetGroupHighWater(largest); err != nil {
				return err
			}
		}
		evBefore := clusterEvictions(c)
		heap.reset()
		start := time.Now()
		ops, failed, err := replay()
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s phase: %w", name, err)
		}
		model.apply(phaseOps)
		row := MillionUserRow{
			Phase:            name,
			Ops:              ops,
			FailedOps:        failed,
			Elapsed:          elapsed,
			MaxResidentLimit: cfg.MaxResidentPages,
			Evictions:        clusterEvictions(c) - evBefore,
			PeakHeapBytes:    heap.peak(),
		}
		if ops > 0 && elapsed > 0 {
			row.OpsPerSec = float64(ops) / elapsed.Seconds()
		}
		if mgr := ownerManager(c, largest); mgr != nil {
			stats, serr := mgr.GroupPageStats(largest)
			if serr != nil {
				return fmt.Errorf("%s phase: page stats: %w", name, serr)
			}
			row.ResidentPagesPeak = stats.HighWater
		}
		// Read path after the phase: sampled members must still decrypt.
		row.Decrypts, row.FailedDecrypts = samplers.sample(model, largest, rng, millionUserDecryptSamples)
		rows = append(rows, row)
		return nil
	}

	// Phase 0 — provision: create every group, chunking the big ones
	// through add-batch so no single request exceeds the residency budget
	// (or the request size cap).
	err = runPhase("provision", nil, func() (int, int, error) {
		return replayGroups(wl.Groups, func(g trace.GroupSeed) (int, int) {
			ops, failed := 0, 0
			first := g.Members
			if len(first) > chunk {
				first = first[:chunk]
			}
			ops++
			if err := shardOp(c, g.Name, "create", map[string]any{
				"group": g.Name, "members": first,
			}); err != nil {
				return ops, failed + 1 // group missing: later chunks would cascade
			}
			for lo := len(first); lo < len(g.Members); lo += chunk {
				hi := lo + chunk
				if hi > len(g.Members) {
					hi = len(g.Members)
				}
				ops++
				if err := shardOp(c, g.Name, "add-batch", map[string]any{
					"group": g.Name, "users": g.Members[lo:hi],
				}); err != nil {
					failed++
				}
			}
			return ops, failed
		})
	})
	if err != nil {
		return nil, err
	}

	for _, ph := range wl.Phases {
		ph := ph
		err = runPhase(ph.Name, ph.Ops, func() (int, int, error) {
			byGroup := groupOps(ph.Ops)
			return replayGroups(byGroup, func(b groupBatch) (int, int) {
				return replayGroupOps(c, b, chunk)
			})
		})
		if err != nil {
			return nil, err
		}
	}
	if err := checkMillionUser(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkMillionUser enforces the sweep's exact properties in every phase:
// the phase replayed ops and sampled decrypts, none of either failed, and
// the largest group never held more resident pages than the configured
// bound — O(partition) memory per operation, adds and rotations included.
func checkMillionUser(rows []MillionUserRow) error {
	var errs []error
	for _, r := range rows {
		if r.Ops == 0 || r.FailedOps != 0 {
			errs = append(errs, fmt.Errorf("%s phase: %d of %d ops failed, want >0 ops and 0 failures", r.Phase, r.FailedOps, r.Ops))
		}
		if r.Decrypts == 0 || r.FailedDecrypts != 0 {
			errs = append(errs, fmt.Errorf("%s phase: %d decrypts, %d failed, want >0 and 0 failures", r.Phase, r.Decrypts, r.FailedDecrypts))
		}
		if r.MaxResidentLimit > 0 && r.ResidentPagesPeak > r.MaxResidentLimit {
			errs = append(errs, fmt.Errorf("%s phase: %d resident pages in the largest group, bound is %d", r.Phase, r.ResidentPagesPeak, r.MaxResidentLimit))
		}
	}
	return errors.Join(errs...)
}

// groupBatch is one group's ordered slice of a phase's operations.
type groupBatch struct {
	Group string
	Ops   []trace.WorkloadOp
}

// groupOps splits a phase into per-group batches, preserving per-group op
// order (cross-group order carries no dependency: users are group-scoped).
func groupOps(ops []trace.WorkloadOp) []groupBatch {
	idx := make(map[string]int)
	var out []groupBatch
	for _, op := range ops {
		i, ok := idx[op.Group]
		if !ok {
			i = len(out)
			idx[op.Group] = i
			out = append(out, groupBatch{Group: op.Group})
		}
		out[i].Ops = append(out[i].Ops, op)
	}
	return out
}

// replayGroups drives fn over every item with a bounded worker pool (one
// serial driver per group, groups in parallel — the gateway's per-group
// routing discipline) and sums the op/failure counts.
func replayGroups[T any](items []T, fn func(T) (ops, failed int)) (int, int, error) {
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		ops, failed int
	)
	ch := make(chan T)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				o, f := fn(it)
				mu.Lock()
				ops += o
				failed += f
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		ch <- it
	}
	close(ch)
	wg.Wait()
	return ops, failed, nil
}

// replayGroupOps replays one group's ops in order, coalescing runs of
// same-kind ops into add-batch/remove-batch requests of at most chunk users
// (one request stays inside the residency budget); an isolated op is a
// batch of one.
func replayGroupOps(c *cluster.Cluster, b groupBatch, chunk int) (ops, failed int) {
	flush := func(kind trace.OpKind, users []string) {
		if len(users) == 0 {
			return
		}
		route := "remove-batch"
		if kind == trace.OpAdd {
			route = "add-batch"
		}
		body := map[string]any{"group": b.Group, "users": users}
		ops++
		if err := shardOp(c, b.Group, route, body); err != nil {
			failed++
		}
	}
	var run []string
	var kind trace.OpKind
	for _, op := range b.Ops {
		if len(run) > 0 && (op.Kind != kind || len(run) >= chunk) {
			flush(kind, run)
			run = run[:0]
		}
		kind = op.Kind
		run = append(run, op.User)
	}
	flush(kind, run)
	return ops, failed
}

// wlModel tracks every group's live membership as phases complete.
type wlModel struct {
	members map[string][]string
	pos     map[string]map[string]int
}

func newWlModel(wl *trace.Workload) *wlModel {
	m := &wlModel{
		members: make(map[string][]string, len(wl.Groups)),
		pos:     make(map[string]map[string]int, len(wl.Groups)),
	}
	for _, g := range wl.Groups {
		m.members[g.Name] = append([]string(nil), g.Members...)
		p := make(map[string]int, len(g.Members))
		for i, u := range g.Members {
			p[u] = i
		}
		m.pos[g.Name] = p
	}
	return m
}

func (m *wlModel) apply(ops []trace.WorkloadOp) {
	for _, op := range ops {
		switch op.Kind {
		case trace.OpAdd:
			m.pos[op.Group][op.User] = len(m.members[op.Group])
			m.members[op.Group] = append(m.members[op.Group], op.User)
		case trace.OpRemove:
			i, ok := m.pos[op.Group][op.User]
			if !ok {
				continue
			}
			ms := m.members[op.Group]
			last := len(ms) - 1
			ms[i] = ms[last]
			m.pos[op.Group][ms[i]] = i
			m.members[op.Group] = ms[:last]
			delete(m.pos[op.Group], op.User)
		}
	}
}

// pick returns a uniform live member of group, or "" when empty.
func (m *wlModel) pick(group string, rng *mrand.Rand) string {
	ms := m.members[group]
	if len(ms) == 0 {
		return ""
	}
	return ms[rng.Intn(len(ms))]
}

func (m *wlModel) groups() []string {
	out := make([]string, 0, len(m.members))
	for g := range m.members {
		out = append(out, g)
	}
	return out
}

// decryptSamplers provisions (and caches) per-user decryption clients
// against shard 0's enclave — the shared master secret makes any shard's
// records decrypt with them.
type decryptSamplers struct {
	c       *cluster.Cluster
	mu      sync.Mutex
	clients map[string]*core.Client
	order   []string // deterministic group order for sampling
}

func newDecryptSamplers(c *cluster.Cluster) *decryptSamplers {
	return &decryptSamplers{c: c, clients: make(map[string]*core.Client)}
}

func (d *decryptSamplers) clientFor(user string) (*core.Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cl, ok := d.clients[user]; ok {
		return cl, nil
	}
	encl := d.c.Shards()[0].Encl
	priv, err := ecdh.P256().GenerateKey(crand.Reader)
	if err != nil {
		return nil, err
	}
	prov, err := encl.EcallExtractUserKey(user, priv.PublicKey())
	if err != nil {
		return nil, err
	}
	uk, err := prov.Open(encl.Scheme(), encl.IdentityPublicKey(), priv)
	if err != nil {
		return nil, err
	}
	cl, err := core.NewClient(encl.Scheme(), d.c.Shards()[0].Admin.Manager().PublicKey(), user, uk)
	if err != nil {
		return nil, err
	}
	d.clients[user] = cl
	return cl, nil
}

// sample draws n decrypts: half from the largest group (the sweep target),
// half from rng-picked groups. Every sampled member must reach a group key
// through the single-record read path.
func (d *decryptSamplers) sample(m *wlModel, largest string, rng *mrand.Rand, n int) (ok, failed int) {
	if d.order == nil {
		d.order = m.groups()
	}
	for i := 0; i < n; i++ {
		group := largest
		if i%2 == 1 && len(d.order) > 0 {
			group = d.order[rng.Intn(len(d.order))]
		}
		user := m.pick(group, rng)
		if user == "" {
			continue
		}
		mgr := ownerManager(d.c, group)
		if mgr == nil {
			failed++
			continue
		}
		if err := d.decrypt(mgr, group, user); err != nil {
			failed++
			continue
		}
		ok++
	}
	return ok, failed
}

func (d *decryptSamplers) decrypt(mgr *core.Manager, group, user string) error {
	cl, err := d.clientFor(user)
	if err != nil {
		return err
	}
	rec, err := mgr.Record(group, user)
	if err != nil {
		return err
	}
	_, err = cl.DecryptRecord(group, rec)
	return err
}

// ownerManager finds the manager currently holding group live, preferring
// ring order (the shard the router would pick first).
func ownerManager(c *cluster.Cluster, group string) *core.Manager {
	for _, id := range c.Membership().Owners(group) {
		if s := c.Shard(id); s != nil && s.Admin.Manager().HasGroup(group) {
			return s.Admin.Manager()
		}
	}
	for _, s := range c.Shards() {
		if s.Admin.Manager().HasGroup(group) {
			return s.Admin.Manager()
		}
	}
	return nil
}

// clusterEvictions sums the page-eviction counters across shards.
func clusterEvictions(c *cluster.Cluster) uint64 {
	var total uint64
	for _, s := range c.Shards() {
		total += s.Admin.Manager().PageEvictions()
	}
	return total
}

// heapWatch samples runtime.MemStats on a short period and tracks the peak
// heap-in-use seen since the last reset.
type heapWatch struct {
	mu   sync.Mutex
	max  uint64
	done chan struct{}
}

func newHeapWatch() *heapWatch {
	h := &heapWatch{done: make(chan struct{})}
	go func() {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapWatch) observe() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mu.Lock()
	if ms.HeapInuse > h.max {
		h.max = ms.HeapInuse
	}
	h.mu.Unlock()
}

func (h *heapWatch) reset() {
	h.observe()
	h.mu.Lock()
	h.max = 0
	h.mu.Unlock()
	h.observe()
}

func (h *heapWatch) peak() uint64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

func (h *heapWatch) stop() { close(h.done) }

// PrintMillionUser writes the scenario-sweep table.
func PrintMillionUser(w io.Writer, rows []MillionUserRow) {
	fmt.Fprintln(w, "Million-user sweep — paged group state on a live 2-shard cluster (Zipf groups, flash crowd, mass revocation, diurnal churn)")
	fmt.Fprintf(w, "%16s  %7s  %6s  %8s  %7s  %12s  %10s  %9s  %6s  %9s  %10s\n",
		"phase", "ops", "failed", "decrypts", "dfailed", "elapsed", "ops/s", "pages-hwm", "limit", "evictions", "peak-heap")
	for _, r := range rows {
		fmt.Fprintf(w, "%16s  %7d  %6d  %8d  %7d  %12s  %10.1f  %9d  %6d  %9d  %9.1fM\n",
			r.Phase, r.Ops, r.FailedOps, r.Decrypts, r.FailedDecrypts,
			r.Elapsed.Round(time.Millisecond), r.OpsPerSec,
			r.ResidentPagesPeak, r.MaxResidentLimit, r.Evictions,
			float64(r.PeakHeapBytes)/(1<<20))
	}
	fmt.Fprintln(w, "shape: every phase's pages-hwm stays at the limit — O(partition) resident memory per op, not O(group)")
}
