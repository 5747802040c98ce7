package benchmark

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// benchPutLatency and benchGetLatency are the injected cloud-store
// mutation and read round trips. The paper's evaluation argues cloud
// response time dominates the end-to-end cost, and its decrypt measurements
// (Fig. 8b) observe the same for the client read path — the cost the record
// cache exists to amortise, so the read-path figure must model it.
const (
	benchPutLatency = 5 * time.Millisecond
	benchGetLatency = 2 * time.Millisecond
)

// ReadPathRow is one arm of the gateway-less read-path figure: 64 readers
// with Zipf-distributed group popularity refresh group keys as fast as
// they can against a 2-shard cluster.
//
//   - baseline: every Refresh goes to the cloud store and re-derives the
//     key — the router-era client read path.
//   - cached: the readers share one version-keyed record cache; the timed
//     window runs fully warm, so every read must be a pure memory hit
//     (StoreGets and CacheMisses over the window must both be zero).
//   - rebalance: the cached readers keep reading while the cluster grows
//     2→4 live and a gateway-less admin client rotates every group key
//     direct-to-shard; invalidation is membership- and poll-driven, and
//     no read may fail.
type ReadPathRow struct {
	Mode    string `json:"mode"` // baseline | cached | rebalance
	Shards  int    `json:"shards"`
	Readers int    `json:"readers"`
	Groups  int    `json:"groups"`
	Reads   int64  `json:"reads"`

	Elapsed     time.Duration `json:"elapsed_ns"`
	ReadsPerSec float64       `json:"reads_per_sec"`

	// StoreGets counts the object GETs the timed window cost the cloud
	// store. Cached mode must report 0: a version-current read performs no
	// store round trips.
	StoreGets int64 `json:"store_gets"`

	// CacheMisses counts the shared record cache's misses over the timed
	// window (0 in the uncached baseline). Every miss is a store round
	// trip, a 304 revalidation included, which StoreGets does not count:
	// cached mode must report 0 here too.
	CacheMisses int64 `json:"cache_misses"`

	// FailedReads counts Refresh calls that returned an error. Must be 0
	// in every arm — including mid-rebalance.
	FailedReads int64 `json:"failed_reads"`

	// Rebalance-only: the concurrent admin work and the invalidation it
	// caused.
	RekeyOps   int64 `json:"rekey_ops,omitempty"`
	DirectOps  int64 `json:"direct_ops,omitempty"`
	ProxiedOps int64 `json:"proxied_ops"`
	Evictions  int64 `json:"evictions,omitempty"`
}

// RunReadPath measures the gateway-less read path: baseline (uncached)
// refreshes vs cache-hit refreshes vs cache-hit refreshes during a live
// 2→4 grow with concurrent direct-routed rekeys. It fails, rather than
// reporting the rows, when a property of the read path does not hold (see
// checkReadPath); the throughputs are reported, never gated.
func RunReadPath(cfg Config) ([]ReadPathRow, error) {
	const (
		groups  = 8
		readers = 64 // the acceptance point: 64 concurrent readers
		zipfS   = 1.2

		baselineWindow = 500 * time.Millisecond
		cachedWindow   = 300 * time.Millisecond
		settleWindow   = 200 * time.Millisecond
	)

	mem := storage.NewMemStore(storage.Latency{Put: benchPutLatency, Get: benchGetLatency})
	c, err := cluster.New(cluster.Options{
		Shards:   2,
		Capacity: cfg.Capacity,
		Params:   cfg.Params,
		Store:    mem,
		LeaseTTL: 10 * time.Minute, // no expiry churn inside a bench run
		Seed:     cfg.Seed,
		Workers:  1,
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Serve every shard over real HTTP and publish the URLs into the
	// membership record, exactly as cmd/ibbe-cluster does — the rebalance
	// arm's gateway-less admin client resolves its routes from that record.
	var tmu sync.Mutex
	targets := make(map[string]string)
	var servers []*httptest.Server
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	serve := func(s *cluster.Shard) {
		srv := httptest.NewServer(s)
		tmu.Lock()
		targets[s.ID] = srv.URL
		servers = append(servers, srv)
		tmu.Unlock()
	}
	c.Targets = func() map[string]string {
		tmu.Lock()
		defer tmu.Unlock()
		out := make(map[string]string, len(targets))
		for id, u := range targets {
			out[id] = u
		}
		return out
	}
	for _, s := range c.Shards() {
		serve(s)
	}
	if err := c.PublishTargets(ctx); err != nil {
		return nil, err
	}

	// Every reader is a member of every group, so Zipf-picked reads always
	// decrypt and a rekey never evicts a reader.
	users := make([]string, readers)
	for r := range users {
		users[r] = fmt.Sprintf("readpath-u%03d@example.com", r)
	}
	groupName := func(i int) string { return fmt.Sprintf("readpath-g%03d", i) }
	for i := 0; i < groups; i++ {
		if err := shardOp(c, groupName(i), "create", map[string]any{
			"group": groupName(i), "members": users,
		}); err != nil {
			return nil, err
		}
	}

	// Provision one user key per reader (shard 0's enclave — the shared
	// master secret makes any shard's records decrypt with it) and one
	// client per (reader, group).
	encl := c.Shards()[0].Encl
	pk := c.Shards()[0].Admin.Manager().PublicKey()
	clients := make([][]*client.Client, readers)
	for r := 0; r < readers; r++ {
		priv, err := ecdh.P256().GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		prov, err := encl.EcallExtractUserKey(users[r], priv.PublicKey())
		if err != nil {
			return nil, err
		}
		uk, err := prov.Open(encl.Scheme(), encl.IdentityPublicKey(), priv)
		if err != nil {
			return nil, err
		}
		clients[r] = make([]*client.Client, groups)
		for g := 0; g < groups; g++ {
			cl, err := client.New(encl.Scheme(), pk, users[r], uk, mem, groupName(g))
			if err != nil {
				return nil, err
			}
			clients[r][g] = cl
		}
	}

	// warmAll brings every client to a derived key (partition located,
	// record fetched) so timed windows measure steady-state reads only.
	warmAll := func() error {
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for g := 0; g < groups; g++ {
					if _, err := clients[r][g].Refresh(ctx); err != nil {
						errs <- fmt.Errorf("warming reader %d group %d: %w", r, g, err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}

	// runWindow streams Zipf-picked refreshes from every reader until
	// drive returns, then reports reads, failures and elapsed time.
	runWindow := func(salt int64, drive func()) (reads, failed int64, elapsed time.Duration) {
		var (
			wg      sync.WaitGroup
			stop    atomic.Bool
			nReads  atomic.Int64
			nFailed atomic.Int64
		)
		start := time.Now()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				// Per-reader deterministic Zipf over the groups: a few hot
				// groups absorb most reads, the tail stays warm but rare.
				src := mrand.New(mrand.NewSource(cfg.Seed + salt*1000 + int64(r)))
				zipf := mrand.NewZipf(src, zipfS, 1, groups-1)
				for !stop.Load() {
					g := int(zipf.Uint64())
					if _, err := clients[r][g].Refresh(ctx); err != nil {
						nFailed.Add(1)
					} else {
						nReads.Add(1)
					}
				}
			}(r)
		}
		drive()
		stop.Store(true)
		wg.Wait()
		return nReads.Load(), nFailed.Load(), time.Since(start)
	}

	row := func(mode string, shards int, reads, failed, gets int64, elapsed time.Duration) ReadPathRow {
		r := ReadPathRow{
			Mode: mode, Shards: shards, Readers: readers, Groups: groups,
			Reads: reads, Elapsed: elapsed, StoreGets: gets, FailedReads: failed,
		}
		if reads > 0 && elapsed > 0 {
			r.ReadsPerSec = float64(reads) / elapsed.Seconds()
		}
		return r
	}
	rows := make([]ReadPathRow, 0, 3)

	// Arm 1 — baseline: no cache; every Refresh pays the store round trip
	// and the IBBE decrypt, as the router-era client did.
	if err := warmAll(); err != nil {
		return nil, err
	}
	getsBefore := mem.Stats().Gets
	reads, failed, elapsed := runWindow(1, func() { time.Sleep(baselineWindow) })
	rows = append(rows, row("baseline", 2, reads, failed, mem.Stats().Gets-getsBefore, elapsed))

	// Arm 2 — cached: all readers share one record cache. After a warm
	// pass the timed window is version-current throughout, so every read
	// must be served from memory: zero store GETs.
	cache := client.NewRecordCache(mem)
	for r := 0; r < readers; r++ {
		for g := 0; g < groups; g++ {
			clients[r][g].SetCache(cache)
		}
	}
	if err := warmAll(); err != nil {
		return nil, err
	}
	getsBefore = mem.Stats().Gets
	missesBefore := cache.Stats().Misses
	reads, failed, elapsed = runWindow(2, func() { time.Sleep(cachedWindow) })
	cached := row("cached", 2, reads, failed, mem.Stats().Gets-getsBefore, elapsed)
	cached.CacheMisses = cache.Stats().Misses - missesBefore
	rows = append(rows, cached)

	// Arm 3 — rebalance: the cached readers keep streaming while the
	// cluster grows 2→4 live and a gateway-less admin client rotates every
	// group key direct-to-shard. Invalidation comes from the existing
	// machinery only: per-group long-poll observations and the membership
	// epoch bumps the admin client's Watch adopts.
	pollCtx, cancelPolls := context.WithCancel(ctx)
	defer cancelPolls()
	for i := 0; i < groups; i++ {
		g := groupName(i)
		since, err := mem.Version(ctx, g)
		if err != nil {
			return nil, err
		}
		go func(g string, since uint64) {
			for {
				v, err := mem.Poll(pollCtx, g, since)
				if err != nil {
					return
				}
				since = v
				cache.ObserveVersion(g, v)
			}
		}(g, since)
	}
	cc, err := client.NewClusterClient(ctx, mem, "")
	if err != nil {
		return nil, err
	}
	cc.Cache = cache
	go cc.Watch(pollCtx)

	var driveErr error
	var rekeys int64
	getsBefore = mem.Stats().Gets
	missesBefore, evBefore := cache.Stats().Misses, cache.Stats().Evictions
	reads, failed, elapsed = runWindow(3, func() {
		for j := 0; j < 2; j++ {
			s, err := c.AddShard()
			if err != nil {
				driveErr = err
				return
			}
			serve(s)
			if _, err := c.Admit(ctx, s.ID); err != nil {
				driveErr = err
				return
			}
		}
		for i := 0; i < groups; i++ {
			if err := cc.RekeyGroup(ctx, groupName(i)); err != nil {
				driveErr = fmt.Errorf("rekey %s mid-grow: %w", groupName(i), err)
				return
			}
			rekeys++
		}
		// Let the pollers observe the last rekeys and the readers refetch,
		// so the row includes the post-invalidation recovery.
		time.Sleep(settleWindow)
	})
	if driveErr != nil {
		return nil, driveErr
	}
	reb := row("rebalance", 4, reads, failed, mem.Stats().Gets-getsBefore, elapsed)
	st := cc.Stats()
	reb.RekeyOps = rekeys
	reb.DirectOps = st.Direct
	reb.ProxiedOps = st.Proxied
	reb.CacheMisses = cache.Stats().Misses - missesBefore
	reb.Evictions = cache.Stats().Evictions - evBefore
	rows = append(rows, reb)
	if err := checkReadPath(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// checkReadPath enforces the read path's exact properties: no arm fails a
// read, the warm cached window costs the store no round trip (no GET, no
// cache miss), and the rebalance arm rotates every group once, each rekey
// routed direct to its shard.
func checkReadPath(rows []ReadPathRow) error {
	var errs []error
	for _, r := range rows {
		if r.FailedReads != 0 {
			errs = append(errs, fmt.Errorf("%s arm: %d failed reads, want 0", r.Mode, r.FailedReads))
		}
		switch r.Mode {
		case "cached":
			if r.StoreGets != 0 || r.CacheMisses != 0 {
				errs = append(errs, fmt.Errorf("cached window cost %d store GETs and %d cache misses, want 0", r.StoreGets, r.CacheMisses))
			}
		case "rebalance":
			if r.RekeyOps != int64(r.Groups) || r.DirectOps != r.RekeyOps || r.ProxiedOps != 0 {
				errs = append(errs, fmt.Errorf("rebalance arm: %d rekeys (%d direct, %d proxied), want %d, all direct",
					r.RekeyOps, r.DirectOps, r.ProxiedOps, r.Groups))
			}
		}
	}
	return errors.Join(errs...)
}

// PrintReadPath writes the read-path table.
func PrintReadPath(w io.Writer, rows []ReadPathRow) {
	fmt.Fprintln(w, "Read path — 64 Zipf readers refreshing group keys (baseline vs shared record cache vs live 2→4 grow)")
	fmt.Fprintf(w, "%10s  %7s  %8s  %7s  %9s  %12s  %12s  %10s  %12s  %7s\n",
		"mode", "shards", "readers", "groups", "reads", "elapsed", "reads/s", "store-gets", "cache-misses", "failed")
	for _, r := range rows {
		fmt.Fprintf(w, "%10s  %7d  %8d  %7d  %9d  %12s  %12.0f  %10d  %12d  %7d\n",
			r.Mode, r.Shards, r.Readers, r.Groups, r.Reads, Dur(r.Elapsed), r.ReadsPerSec, r.StoreGets, r.CacheMisses, r.FailedReads)
	}
	if len(rows) == 3 {
		base, cached, reb := rows[0], rows[1], rows[2]
		speedup := 0.0
		if base.ReadsPerSec > 0 {
			speedup = cached.ReadsPerSec / base.ReadsPerSec
		}
		fmt.Fprintf(w, "shape: cache-hit reads run %.1fx the uncached baseline (%.0f vs %.0f reads/s) with %d store GETs and %d cache misses in the warm window; grow 2→4 live: %d reads, %d failed, %d rekeys all direct (%d direct / %d proxied), %d cache evictions\n",
			speedup, cached.ReadsPerSec, base.ReadsPerSec, cached.StoreGets, cached.CacheMisses,
			reb.Reads, reb.FailedReads, reb.RekeyOps, reb.DirectOps, reb.ProxiedOps, reb.Evictions)
	}
}
