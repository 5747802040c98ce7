package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
)

// runOpts selects one run of one workload.
type runOpts struct {
	Seed int64
	// Seconds is how long the measured admin stream runs. Ops, when > 0,
	// ends the stream after exactly that many measured ops instead, so that
	// the admin-side counters of two runs can be compared for equality.
	Seconds float64
	Ops     int
	// Traced turns the bench's spans on and adds the per-layer metrics.
	Traced bool
	// OutDir receives trace-<workload>.json in a traced run.
	OutDir string
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0 for plain counters).
	N int `json:"n"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Ops is the number of measured admin ops (after WarmupOps discarded ones).
	Ops       int `json:"ops"`
	WarmupOps int `json:"warmup_ops"`
	// StreamSHA256 covers every op executed (warm-up included);
	// StreamPrefixSHA256 covers the first prefixOps of them.
	StreamSHA256       string `json:"stream_sha256"`
	StreamPrefixSHA256 string `json:"stream_prefix_sha256"`
	Attempted          int    `json:"attempted"`
	Failed             int    `json:"failed"`
	Correct            bool   `json:"correct"`
	// BoxSpeed is the box's speed during the stream relative to the
	// undisturbed reference box, when the end-to-end timings are reported at
	// the reference speed (0 = as measured: a traced run, or a workload that
	// is not CPU-bound).
	BoxSpeed   float64  `json:"box_speed,omitempty"`
	Violations []string `json:"violations,omitempty"`
	Metrics    []metric `json:"metrics"`
}

func (r *result) set(name string, value float64, n int) {
	def, ok := lookupDef(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: def.Unit, N: n})
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	r.Failed++
}

// traceBlock is how many consecutive admin ops share one recording state in
// the traced run: blocks alternate between recorded and not, so the two arms
// of bench.trace_overhead_share see the same system at the same time.
const traceBlock = 16

// opSample is one measured admin op or standby restore.
type opSample struct {
	Kind   opKind
	Traced bool
	Dur    time.Duration
	// Pos is the box clock's position when the sample was taken.
	Pos int
}

func (o opSample) ms() float64 { return float64(o.Dur) / float64(time.Millisecond) }

// runWorkload runs one workload once and reports its metrics: the end-to-end
// ones from an untraced run, or the per-layer ones from a traced run.
func runWorkload(ctx context.Context, w spec, sc scale, o runOpts) (*result, error) {
	w = sc.sized(w)
	res := &result{Workload: w.Name, Seed: o.Seed, Traced: o.Traced, WarmupOps: sc.WarmupOps}

	var rec *recorder
	setups := sc.Setups
	if o.Traced {
		rec = newRecorder()
		setups = 1 // setup_s is an end-to-end metric; the traced run needs one system
	}

	// Set-up, several times over: the median is setup_s and the last system
	// is the one measured.
	var (
		sys       *system
		setupSecs samples
	)
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC() // the previous system's garbage is not this set-up's cost
		var box boxClock
		t0 := time.Now()
		box.run()
		var err error
		if sys, err = buildSystem(ctx, w, sc, o.Seed, rec, &box); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		for j := 0; j < sc.WarmupOps; j++ {
			if err := sys.apply(ctx, sys.gen.next()); err != nil {
				sys.close()
				return nil, fmt.Errorf("%s: warm-up op: %w", w.Name, err)
			}
			box.tick()
		}
		box.run()
		secs := (time.Since(t0) - box.spent).Seconds()
		if w.cpuBound() {
			secs *= box.speed()
		}
		setupSecs.add(secs)
	}
	defer sys.close()

	standby, err := newAdminOn(sys.encl, sc, sys.adminStore, w.MaxResident, "standby")
	if err != nil {
		return nil, fmt.Errorf("%s: standby admin: %w", w.Name, err)
	}
	h := &harness{sys: sys, res: res, standby: standby}
	h.stream(ctx, o)
	h.footprint(ctx)
	h.check(ctx)

	res.StreamSHA256 = sys.gen.streamSHA256()
	res.StreamPrefixSHA256 = sys.gen.prefixSHA256()
	res.Correct = res.Failed == 0
	if o.Traced {
		h.ledger()
		if err := runProbes(ctx, h); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.Name, err)
		}
		if o.OutDir != "" {
			if err := rec.writeFile(filepath.Join(o.OutDir, "trace-"+w.Name+".json")); err != nil {
				return nil, err
			}
		}
		res.set("e2e.failed_ops_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	} else {
		h.endToEnd(setupSecs)
	}
	return res, nil
}

// apply sends one generated op to the system under test. In the traced run
// it is the root `op` span, with a `route` child around a ClusterClient call.
func (s *system) apply(ctx context.Context, o op) error {
	group := s.gen.groups[o.Group].Name
	root := s.rec.start(nil, "op")
	if root != nil {
		root.Kind, root.Group = o.Kind.String(), group
		s.rec.adminOp.Store(root)
		defer func() {
			s.rec.adminOp.Store(nil)
			s.rec.end(root)
		}()
		parent := root
		if s.w.Routed {
			parent = s.rec.start(root, "route")
			defer s.rec.end(parent)
		}
		ctx = withSpan(ctx, parent)
	}
	if o.Kind == opAdd {
		return s.api.AddUser(ctx, group, o.User)
	}
	return s.api.RemoveUser(ctx, group, o.User)
}

// harness holds what the phases of one run share.
type harness struct {
	sys *system
	res *result

	ops []opSample
	// streamWall is the wall time of the measured stream without the standby
	// restores and the kernel runs interleaved with it.
	streamWall time.Duration
	reader     *reader
	watcher    *watcher
	standby    *admin.Admin
	restores   []opSample
	// box times the box-speed kernel between ops.
	box boxClock
	// Counter deltas over the measured stream.
	storePuts, storeGets, storeBytesIn int64
	evictions                          uint64
	cacheBefore, cacheAfter            client.CacheStats
	heapPeak                           uint64
	allocBytes                         uint64
	gcPause                            time.Duration
	// Footprint of the group directories after the stream.
	storeBytes, storeObjects, members int
}

// stream is the measured phase: the closed-loop admin driver on this
// goroutine, the open-loop member reader and the event-driven watcher on
// their own. After every RestoreEvery-th op the driver also times one standby
// restore, so that restore_p50_ms is sampled over the same stretch of time as
// the op latencies: the reference box's speed wanders from second to second,
// and a burst of restores after the stream caught one or two seconds of it.
func (h *harness) stream(ctx context.Context, o runOpts) {
	sys := h.sys
	h.reader = newReader(sys, o.Seed)
	h.watcher = newWatcher(sys)

	bg, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	watcherUp := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.watcher.run(bg, watcherUp)
	}()
	<-watcherUp // the first delivery: the watcher is now polling

	runtime.GC() // set-up garbage is collected before the measured stream
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore, pauseBefore := ms.TotalAlloc, ms.PauseTotalNs
	h.heapPeak = ms.HeapAlloc
	statsBefore := sys.mem.Stats()
	evictBefore := sys.evictions()
	h.cacheBefore = sys.cache.Stats()

	readerCtx, stopReader := context.WithCancel(bg)
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.reader.run(readerCtx)
	}()

	watched := sys.gen.groups[sys.watchGroup].Name
	var restoring time.Duration // the standby restores are not part of the admin stream
	start := time.Now()
	h.box.run()
	deadline := start.Add(time.Duration(o.Seconds * float64(time.Second)))
	for n := 0; ; n++ {
		if o.Ops > 0 {
			if n == o.Ops {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		if n > 0 && sys.w.Think > 0 {
			time.Sleep(sys.w.Think)
		}
		traced := h.sys.rec != nil && (n/traceBlock)%2 == 0
		if h.sys.rec != nil {
			h.sys.rec.on.Store(traced)
		}
		next := sys.gen.next()
		if next.Kind == opRemove && next.Group == sys.watchGroup {
			v, _ := sys.mem.Version(ctx, watched) // MemStore.Version cannot fail
			h.watcher.noteRemoval(v, traced)
		}
		t0 := time.Now()
		err := sys.apply(ctx, next)
		h.ops = append(h.ops, opSample{Kind: next.Kind, Traced: traced, Dur: time.Since(t0), Pos: h.box.pos()})
		h.res.Attempted++
		if err != nil {
			h.res.violate("admin %s %s on %s: %v", next.Kind, next.User, sys.gen.groups[next.Group].Name, err)
		}
		if n%sys.sc.RestoreEvery == sys.sc.RestoreEvery-1 {
			t0 = time.Now()
			h.restoreCycle(ctx)
			restoring += time.Since(t0)
		}
		h.box.tick()
		if n%64 == 63 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > h.heapPeak {
				h.heapPeak = ms.HeapAlloc
			}
		}
	}
	h.box.run()
	h.streamWall = time.Since(start) - restoring - h.box.spent
	h.res.Ops = len(h.ops)
	stopReader()

	// The member side keeps recording until it has caught up.
	h.watcher.drain(2 * time.Second)
	if h.sys.rec != nil {
		h.sys.rec.on.Store(false)
	}
	cancel()
	wg.Wait()

	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.heapPeak {
		h.heapPeak = ms.HeapAlloc
	}
	h.allocBytes = ms.TotalAlloc - allocBefore
	h.gcPause = time.Duration(ms.PauseTotalNs - pauseBefore)
	statsAfter := sys.mem.Stats()
	h.storePuts = statsAfter.Puts - statsBefore.Puts
	h.storeGets = statsAfter.Gets - statsBefore.Gets
	h.storeBytesIn = statsAfter.BytesIn - statsBefore.BytesIn
	h.evictions = sys.evictions() - evictBefore
	h.cacheAfter = sys.cache.Stats()

	h.res.Attempted += h.reader.reads
	for _, msg := range h.reader.failures {
		h.res.violate("%s", msg)
	}
	// An open-loop reader that runs later than its own interval is measuring
	// its backlog, not the system: the run is invalid.
	if late := h.reader.late.quantile(0.95); readerTooLate(late, h.reader.interval) {
		h.res.violate("invalid run: reader lateness p95 %.2f ms is not below the read interval %.2f ms",
			late, float64(h.reader.interval)/float64(time.Millisecond))
	}
}

// readerTooLate is the open-loop validity rule: the reader's p95 lateness
// (ms) must stay below its interval.
func readerTooLate(lateP95MS float64, interval time.Duration) bool {
	return lateP95MS >= float64(interval)/float64(time.Millisecond)
}

// evictions sums LRU page evictions over every admin of the system.
func (s *system) evictions() uint64 {
	var total uint64
	for _, a := range s.admins {
		total += a.Manager().PageEvictions()
	}
	return total
}

// reader is the open-loop member reader: one read every interval, each timed
// from its due time, over Zipf-picked groups and uniformly picked pinned
// members. Every coldEvery-th read builds a fresh client for the member.
type reader struct {
	sys      *system
	rng      *rand.Rand
	zipf     *rand.Zipf
	interval time.Duration

	reads    int
	failures []string
	fetch    samples // warm reads that had to re-derive the key
	cold     samples // first GroupKey of a fresh client
	late     samples // how late each read started
}

const coldEvery = 5

func newReader(sys *system, seed int64) *reader {
	r := &reader{
		sys: sys,
		// The reader draws from its own stream so that its picks do not
		// depend on how far the admin stream got.
		rng:      rand.New(rand.NewSource(seed ^ 0x5eed)),
		interval: time.Duration(float64(time.Second) / sys.w.ReadRate),
	}
	if n := len(sys.gen.groups); n > 1 {
		r.zipf = rand.NewZipf(r.rng, zipfS, 1, uint64(n-1))
	}
	return r
}

func (r *reader) run(ctx context.Context) {
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * r.interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		r.late.addMS(time.Since(due))
		r.read(ctx, i, due)
	}
}

func (r *reader) read(ctx context.Context, i int, due time.Time) {
	sys := r.sys
	gi := 0
	if r.zipf != nil {
		gi = int(r.zipf.Uint64())
	}
	group := sys.gen.groups[gi].Name
	warm := sys.warm[gi][r.rng.Intn(len(sys.warm[gi]))]
	cold := i%coldEvery == coldEvery-1

	name := "read"
	if cold {
		name = "cold_read"
	}
	root := sys.rec.start(nil, name)
	if root != nil {
		root.Group = group
		ctx = withSpan(ctx, root)
		defer sys.rec.end(root)
	}

	sys.observeVersion(ctx, group)
	r.reads++
	var err error
	if cold {
		var cl *client.Client
		if cl, err = sys.newClient(warm.ID(), group, sys.memberStore); err == nil {
			_, err = cl.GroupKey(ctx)
		}
		if err == nil {
			r.cold.addMS(time.Since(due))
		}
	} else {
		// A fetch is a read that went to the store and re-derived the key.
		// (A read that re-derives from a record another member's read already
		// brought into the shared cache is cheaper by the store round trip;
		// mixing the two makes the median jump between two modes.)
		decrypts, misses := warm.Decrypts(), sys.cache.Stats().Misses
		_, err = warm.Refresh(ctx)
		if err == nil && warm.Decrypts() > decrypts && sys.cache.Stats().Misses > misses {
			r.fetch.addMS(time.Since(due))
			if root != nil {
				root.Kind = "fetch"
			}
		}
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		r.failures = append(r.failures, fmt.Sprintf("read of %s by %s: %v", group, warm.ID(), err))
	}
}

// watcher runs client.Client.Watch for one pinned member and matches every
// key it is handed to the removals that key makes visible.
type watcher struct {
	sys *system
	tap *pollTap

	mu         sync.Mutex
	pending    []pendingRemoval
	visible    samples
	deliveries int
	seen       map[[kdf.KeySize]byte]bool
	last       [kdf.KeySize]byte
	repeated   int
	// rotationsBefore is the oracle's rotation count of the watched group
	// when the watcher started.
	rotationsBefore int
	// tracedRemovals counts the removals issued while spans were recorded.
	tracedRemovals int
	err            error
}

type pendingRemoval struct {
	issued time.Time
	// before is the directory version when the removal was issued: a key
	// derived after a poll returned a later version reflects this removal.
	before uint64
}

func newWatcher(sys *system) *watcher {
	w := &watcher{
		sys:             sys,
		seen:            make(map[[kdf.KeySize]byte]bool),
		rotationsBefore: sys.gen.groups[sys.watchGroup].Rotations,
	}
	w.tap = &pollTap{Store: sys.memberStore, rec: sys.rec}
	return w
}

// noteRemoval registers a removal on the watched group just before it is
// issued.
func (w *watcher) noteRemoval(dirVersion uint64, traced bool) {
	w.mu.Lock()
	w.pending = append(w.pending, pendingRemoval{issued: time.Now(), before: dirVersion})
	if traced {
		w.tracedRemovals++
	}
	w.mu.Unlock()
}

func (w *watcher) run(ctx context.Context, up chan<- struct{}) {
	group := w.sys.gen.groups[w.sys.watchGroup].Name
	cl, err := w.sys.newClient(w.sys.watchUser, group, w.tap)
	if err != nil {
		w.err = err
		close(up)
		return
	}
	// The shared cache still holds this group's records as of set-up; a real
	// member starting to watch would learn of the newer version from its
	// first poll.
	w.sys.observeVersion(ctx, group)
	first := true
	err = cl.Watch(withSpanSlot(ctx, &w.tap.wake), func(gk [kdf.KeySize]byte) {
		w.deliver(gk)
		if first {
			first = false
			close(up)
		}
	})
	w.tap.endWake()
	if first {
		close(up)
	}
	if !errors.Is(err, context.Canceled) {
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
	}
}

// deliver is the Watch callback: the member now holds gk.
func (w *watcher) deliver(gk [kdf.KeySize]byte) {
	now := time.Now()
	polled := w.tap.lastVersion.Load()
	if sp := w.tap.wake.Load(); sp != nil {
		sp.Name = "watch.deliver"
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.deliveries++
	if w.seen[gk] {
		w.repeated++
	}
	w.seen[gk] = true
	w.last = gk
	keep := w.pending[:0]
	for _, p := range w.pending {
		if p.before < polled {
			w.visible.addMS(now.Sub(p.issued))
		} else {
			keep = append(keep, p)
		}
	}
	w.pending = keep
}

// drain waits until every registered removal has become visible.
func (w *watcher) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		n := len(w.pending)
		w.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// restoreCycle times one RestoreGroup on the standby admin — own
// core.Manager, same enclave, does not hold the group — round-robin over the
// groups; the DropGroup that follows is not timed.
func (h *harness) restoreCycle(ctx context.Context) {
	sys := h.sys
	group := sys.gen.groups[len(h.restores)%len(sys.gen.groups)].Name
	root := sys.rec.start(nil, "restore")
	if root != nil {
		root.Group = group
	}
	t0 := time.Now()
	err := h.standby.RestoreGroup(withSpan(ctx, root), group)
	h.restores = append(h.restores, opSample{Dur: time.Since(t0), Pos: h.box.pos()})
	sys.rec.end(root)
	h.res.Attempted++
	if err != nil {
		h.res.violate("restore of %s: %v", group, err)
	}
	h.standby.DropGroup(group)
}

// footprint measures the bytes and objects held under the group directories
// and the oracle's member count.
func (h *harness) footprint(ctx context.Context) {
	for _, g := range h.sys.gen.groups {
		names, err := h.sys.mem.List(ctx, g.Name)
		if err != nil {
			h.res.violate("listing %s: %v", g.Name, err)
			continue
		}
		for _, name := range names {
			blob, err := h.sys.mem.Get(ctx, g.Name, name)
			if err != nil {
				h.res.violate("reading %s/%s: %v", g.Name, name, err)
				continue
			}
			h.storeBytes += len(blob)
			h.storeObjects++
		}
		h.members += g.Size()
	}
}

// check runs the correctness checks that gate the run. Each check counts as
// attempted; each violation as failed.
func (h *harness) check(ctx context.Context) {
	sys, res := h.sys, h.res

	// The watcher ran and every removal of its group became visible through
	// a key it had never held before.
	w := h.watcher
	watched := sys.gen.groups[sys.watchGroup]
	removals := watched.Rotations - w.rotationsBefore
	res.Attempted++
	switch {
	case w.err != nil:
		res.violate("watcher: %v", w.err)
	case len(w.pending) > 0:
		res.violate("watcher: %d of %d removals of %s never became visible", len(w.pending), removals, watched.Name)
	case w.repeated > 0:
		res.violate("watcher: %d deliveries repeated an earlier key", w.repeated)
	case w.deliveries-1 > removals:
		res.violate("watcher: %d key changes for %d removals", w.deliveries-1, removals)
	}

	for gi, g := range sys.gen.groups {
		// Every pinned member derives the same current key (the watcher's
		// last delivery included).
		res.Attempted++
		sys.observeVersion(ctx, g.Name)
		if err := refreshAll(ctx, sys.warm[gi]); err != nil {
			res.violate("pinned member cannot derive the key: %v", err)
			continue
		}
		keys := make(map[[kdf.KeySize]byte]bool)
		for _, cl := range sys.warm[gi] {
			gk, err := cl.GroupKey(ctx)
			if err != nil {
				res.violate("pinned member %s: %v", cl.ID(), err)
			}
			keys[gk] = true
		}
		if gi == sys.watchGroup && w.deliveries > 0 {
			keys[w.last] = true
		}
		if len(keys) != 1 {
			res.violate("%s: pinned members hold %d different keys", g.Name, len(keys))
		}

		// Every removed canary is evicted.
		for _, u := range g.RemovedCanaries {
			res.Attempted++
			cl, err := sys.newClient(u, g.Name, sys.memberStore)
			if err == nil {
				_, err = cl.Refresh(ctx)
			}
			if !errors.Is(err, client.ErrEvicted) {
				res.violate("%s: removed user %s is not evicted: %v", g.Name, u, err)
			}
		}

		// The owning admin's paged member listing equals the oracle.
		res.Attempted++
		owner := sys.owner(g.Name)
		if owner == nil {
			res.violate("%s: no admin holds the group", g.Name)
			continue
		}
		want := g.Members()
		got := 0
		for after := ""; ; {
			page, err := owner.Manager().MembersPage(g.Name, after, 1000)
			if err != nil {
				res.violate("%s: member listing: %v", g.Name, err)
				break
			}
			for _, u := range page {
				if !want[u] {
					res.violate("%s: %s is listed but not a member", g.Name, u)
				}
			}
			got += len(page)
			if len(page) < 1000 {
				break
			}
			after = page[len(page)-1]
		}
		if got != len(want) {
			res.violate("%s: %d members listed, the oracle has %d", g.Name, got, len(want))
		}
	}
}

// byKind splits the measured ops' latencies (ms) by op kind, optionally only
// those of one recording state.
func (h *harness) byKind(kind opKind, filter func(opSample) bool) samples {
	var out samples
	for _, o := range h.ops {
		if o.Kind == kind && (filter == nil || filter(o)) {
			out.add(o.ms())
		}
	}
	return out
}

// endToEnd reports the end-to-end metrics of an untraced run. On a CPU-bound
// workload every timing is reported at the reference box's speed (see
// boxspeed.go); setupSecs already are.
func (h *harness) endToEnd(setupSecs samples) {
	res := h.res
	speedAt := func(int) float64 { return 1 }
	if h.sys.w.cpuBound() {
		speedAt = h.box.speedAt
		res.BoxSpeed = h.box.speed()
	}
	var (
		adds, removes, restores samples
		measured, reported      float64 // time in ops
	)
	for _, o := range h.ops {
		ms := o.ms() * speedAt(o.Pos)
		measured += o.ms()
		reported += ms
		if o.Kind == opAdd {
			adds.add(ms)
		} else {
			removes.add(ms)
		}
	}
	for _, o := range h.restores {
		restores.add(o.ms() * speedAt(o.Pos))
	}
	wall := h.streamWall.Seconds() * ratio(reported, measured)
	res.set("setup_s", setupSecs.median(), len(setupSecs))
	res.set("add_p50_ms", adds.median(), len(adds))
	res.set("remove_p50_ms", removes.median(), len(removes))
	res.set("admin_ops_per_s", ratio(float64(len(h.ops)), wall), len(h.ops))
	res.set("restore_p50_ms", restores.median(), len(restores))
	res.set("store_bytes_per_member", ratio(float64(h.storeBytes), float64(h.members)), h.members)
}

// ledger folds the traced run's spans and counters into the B metrics.
func (h *harness) ledger() {
	res, sys := h.res, h.sys
	byRoot := make(map[int64][]*span)
	var roots []*span
	for _, sp := range h.sys.rec.snapshot() {
		if sp.Parent == 0 {
			roots = append(roots, sp)
		} else {
			byRoot[sp.Root] = append(byRoot[sp.Root], sp)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })

	type perKind struct {
		routeSelf, shardSelf, storeWait, compute samples
		calls, putBytes                          samples
	}
	kinds := map[string]*perKind{"add": {}, "remove": {}}
	var (
		recordGets, recordPuts   int
		fetchGets, coldGets      samples
		watchGets                int
		restoreCalls, restoreGet samples
	)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, root := range roots {
		var (
			wait          time.Duration
			calls, bytes  int
			route, shard  *span
			bytesReceived int
		)
		for _, sp := range byRoot[root.ID] {
			switch {
			case sp.Name == "route":
				route = sp
			case sp.Name == "shard":
				shard = sp
			case isRoundTrip(sp.Name):
				wait += sp.dur()
				calls++
				isPut := sp.Name == "store.put" || sp.Name == "store.put_if" || sp.Name == "store.put_fenced"
				if isPut {
					bytes += sp.Bytes
				} else {
					bytesReceived += sp.Bytes
				}
				if root.Name == "op" && isRecordObject(sp.Object) {
					if isPut {
						recordPuts++
					} else if sp.Name == "store.get" {
						recordGets++
					}
				}
			}
		}
		switch root.Name {
		case "op":
			k := kinds[root.Kind]
			k.storeWait.add(ms(wait))
			k.compute.add(ms(root.dur() - wait))
			k.calls.add(float64(calls))
			k.putBytes.add(float64(bytes))
			if route != nil && shard != nil {
				k.routeSelf.add(ms(route.dur() - shard.dur()))
				k.shardSelf.add(ms(shard.dur() - wait))
			}
		case "read":
			if root.Kind == "fetch" {
				fetchGets.add(float64(calls))
			}
		case "cold_read":
			coldGets.add(float64(calls))
		case "watch.wake", "watch.deliver":
			watchGets += calls
		case "restore":
			restoreCalls.add(float64(calls))
			restoreGet.add(float64(bytesReceived))
		}
	}

	add, remove := kinds["add"], kinds["remove"]
	res.set("client.route_self_add_p50_ms", add.routeSelf.median(), len(add.routeSelf))
	res.set("client.route_self_remove_p50_ms", remove.routeSelf.median(), len(remove.routeSelf))
	var proxied, fenced int64
	if sys.cc != nil {
		st := sys.cc.Stats()
		proxied, fenced = st.Proxied, st.FencedRefreshes
	}
	res.set("client.route_proxied", float64(proxied), 0)
	res.set("client.route_fenced_refreshes", float64(fenced), 0)
	res.set("cluster.shard_self_add_p50_ms", add.shardSelf.median(), len(add.shardSelf))
	res.set("cluster.shard_self_remove_p50_ms", remove.shardSelf.median(), len(remove.shardSelf))

	res.set("admin.store_wait_add_p50_ms", add.storeWait.median(), len(add.storeWait))
	res.set("admin.store_wait_remove_p50_ms", remove.storeWait.median(), len(remove.storeWait))
	res.set("admin.store_calls_add", add.calls.mean(), len(add.calls))
	res.set("admin.store_calls_remove", remove.calls.mean(), len(remove.calls))
	res.set("admin.put_bytes_add", add.putBytes.mean(), len(add.putBytes))
	res.set("admin.put_bytes_remove", remove.putBytes.mean(), len(remove.putBytes))
	res.set("admin.compute_add_p50_ms", add.compute.median(), len(add.compute))
	res.set("admin.compute_remove_p50_ms", remove.compute.median(), len(remove.compute))
	res.set("admin.restore_store_calls", restoreCalls.mean(), len(restoreCalls))
	res.set("admin.restore_bytes", restoreGet.mean(), len(restoreGet))

	peak := 0
	for _, g := range sys.gen.groups {
		if owner := sys.owner(g.Name); owner != nil {
			if st, err := owner.Manager().GroupPageStats(g.Name); err == nil && st.HighWater > peak {
				peak = st.HighWater
			}
		}
	}
	ops := float64(len(h.ops))
	res.set("core.resident_pages_peak", float64(peak), 0)
	res.set("core.page_evictions_per_op", ratio(float64(h.evictions), ops), len(h.ops))
	// Every page an op gets it also writes back, so record PUTs count page
	// gets; record GETs on the admin side are rehydrations.
	res.set("partition.page_miss_share", ratio(float64(recordGets), float64(recordPuts)), recordPuts)

	res.set("storage.puts_per_op", ratio(float64(h.storePuts), ops), len(h.ops))
	res.set("storage.put_bytes_per_op", ratio(float64(h.storeBytesIn), ops), len(h.ops))
	res.set("storage.objects_total", float64(h.storeObjects), 0)
	res.set("storage.gets_per_op", ratio(float64(h.storeGets), ops), len(h.ops))

	hits := h.cacheAfter.Hits - h.cacheBefore.Hits
	lookups := hits + h.cacheAfter.Misses - h.cacheBefore.Misses + h.cacheAfter.Collapsed - h.cacheBefore.Collapsed
	res.set("client.cache_hit_share", ratio(float64(hits), float64(lookups)), int(lookups))
	res.set("client.store_gets_per_fetch", fetchGets.mean(), len(fetchGets))
	res.set("client.store_gets_per_cold", coldGets.mean(), len(coldGets))
	res.set("client.watch_wakes_per_rotation", ratio(float64(watchGets), float64(h.watcher.tracedRemovals)), h.watcher.tracedRemovals)
	res.set("client.key_fetch_p95_ms", h.reader.fetch.quantile(0.95), len(h.reader.fetch))
	res.set("client.key_cold_p95_ms", h.reader.cold.quantile(0.95), len(h.reader.cold))
	res.set("client.rekey_visible_p95_ms", h.watcher.visible.quantile(0.95), len(h.watcher.visible))

	// Time per op, recorded against not, at the recorded blocks' op mix.
	var on, off float64
	for _, kind := range []opKind{opAdd, opRemove} {
		recorded := h.byKind(kind, func(o opSample) bool { return o.Traced })
		plain := h.byKind(kind, func(o opSample) bool { return !o.Traced })
		on += float64(len(recorded)) * recorded.mean()
		off += float64(len(recorded)) * plain.mean()
	}
	overhead := 0.0
	if off > 0 {
		overhead = on/off - 1
	}
	res.set("bench.trace_overhead_share", overhead, len(h.ops))
	adds, removes := h.byKind(opAdd, nil), h.byKind(opRemove, nil)
	res.set("e2e.add_p95_ms", adds.quantile(0.95), len(adds))
	res.set("e2e.remove_p95_ms", removes.quantile(0.95), len(removes))
	res.set("e2e.key_fetch_p50_ms", h.reader.fetch.median(), len(h.reader.fetch))
	res.set("e2e.key_cold_p50_ms", h.reader.cold.median(), len(h.reader.cold))
	res.set("e2e.rekey_visible_p50_ms", h.watcher.visible.median(), len(h.watcher.visible))
	res.set("bench.reader_late_p95_ms", h.reader.late.quantile(0.95), len(h.reader.late))
	res.set("bench.box_speed", h.box.speed(), len(h.box.ms))
	const mb = 1 << 20
	res.set("proc.heap_peak_mb", float64(h.heapPeak)/mb, 0)
	res.set("proc.alloc_mb_per_kop", ratio(float64(h.allocBytes)/mb, ops/1000), len(h.ops))
	res.set("proc.gc_pause_total_ms", ms(h.gcPause), 0)
}
