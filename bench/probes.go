package main

import (
	"bytes"
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/partition"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// prober runs the P metrics: direct calls into each package's exported
// functions, on inputs shaped like the workload's end state, median reported.
type prober struct {
	res *result
	sc  scale
}

// minSeries is the least number of timed sections behind a probe's median
// when the time budget allows it, however many calls one section batches.
const minSeries = 9

// series calls fn until the scale's call count (and minSeries timed sections)
// or its time budget is reached, at least once, and returns what it timed in
// nanoseconds per call. fn times its own critical section, so untimed
// preparation may surround it; batch is how many calls one section makes.
func (p *prober) series(batch int, fn func() (time.Duration, error)) (samples, error) {
	var out samples
	start := time.Now()
	for (len(out)*batch < p.sc.ProbeCalls || len(out) < minSeries) && (len(out) == 0 || time.Since(start) < p.sc.ProbeBudget) {
		d, err := fn()
		if err != nil {
			return nil, err
		}
		out.add(float64(d) / float64(batch))
	}
	return out, nil
}

// rounds calls fn until the scale's call count or budgets probe budgets of
// time are used, at least once: for probes whose calls only make sense in a
// fixed order within a round.
func (p *prober) rounds(budgets int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < p.sc.ProbeCalls && (i == 0 || time.Since(start) < time.Duration(budgets)*p.sc.ProbeBudget); i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// probe reports the median of one series in the metric's unit.
func (p *prober) probe(name string, batch int, fn func() (time.Duration, error)) error {
	s, err := p.series(batch, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.setNS(name, s)
	return nil
}

// setNS converts a nanosecond series to the catalog unit of the metric.
func (p *prober) setNS(name string, s samples) {
	def, _ := lookupDef(name)
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[def.Unit]
	p.res.set(name, s.median()/div, len(s))
}

// timed measures one call.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

func probeIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%06d@bench", prefix, i)
	}
	return ids
}

// runProbes runs every P metric after the traced workload.
func runProbes(ctx context.Context, h *harness) error {
	p := &prober{res: h.res, sc: h.sys.sc}
	for _, step := range []func(context.Context, *harness) error{
		p.coreProbes, p.enclaveProbes, p.ibbeProbes, p.pairingProbes,
		p.storageProbes, p.clusterProbes, p.obsOverhead,
	} {
		if err := step(ctx, h); err != nil {
			return err
		}
	}
	return nil
}

// coreProbes covers core and partition: a Manager with no store at the
// workload's group size, record and index (de)serialization, the op log.
func (p *prober) coreProbes(_ context.Context, h *harness) error {
	sys := h.sys
	mgr, err := core.NewManager(sys.encl, p.sc.Capacity, managerSeed)
	if err != nil {
		return err
	}
	mgr.SetParallelism(productWorkers)
	const group = "probe"
	members := probeIDs("probe-m", sys.w.Members-sys.w.Slack)
	if _, err := mgr.CreateGroup(group, members); err != nil {
		return err
	}
	var adds, removes samples
	if err := p.rounds(2, func(i int) error {
		u := fmt.Sprintf("probe-n-%06d@bench", i)
		d, err := timed(func() error { _, err := mgr.AddUser(group, u); return err })
		if err != nil {
			return err
		}
		adds.add(float64(d))
		d, err = timed(func() error { _, err := mgr.RemoveUser(group, u); return err })
		removes.add(float64(d))
		return err
	}); err != nil {
		return err
	}
	p.setNS("core.add_user_us", adds)
	p.setNS("core.remove_user_ms", removes)

	rec, err := mgr.Record(group, members[0])
	if err != nil {
		return err
	}
	var recBlob []byte
	if err := p.probe("core.record_marshal_us", 1, func() (time.Duration, error) {
		return timed(func() error { recBlob, err = rec.Marshal(sys.scheme); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("core.record_unmarshal_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, err := core.UnmarshalRecord(sys.scheme, recBlob); return err })
	}); err != nil {
		return err
	}
	var idxBlob []byte
	if err := p.probe("core.index_marshal_us", 1, func() (time.Duration, error) {
		return timed(func() error { idxBlob, err = mgr.MarshalIndex(group); return err })
	}); err != nil {
		return err
	}
	opLog, err := core.NewOpLog()
	if err != nil {
		return err
	}
	if err := p.probe("core.oplog_append_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, err := opLog.Append("admin-0", group, core.OpAddUser, members[0]); return err })
	}); err != nil {
		return err
	}

	var idx *partition.Index
	if err := p.probe("partition.index_unmarshal_us", 1, func() (time.Duration, error) {
		return timed(func() error { idx, err = partition.UnmarshalIndex(idxBlob); return err })
	}); err != nil {
		return err
	}
	page := idx.NewPage()
	joiners := probeIDs("probe-b", p.sc.Capacity)
	if err := p.probe("partition.index_bind_ns", len(joiners), func() (time.Duration, error) {
		d, err := timed(func() error {
			for _, u := range joiners {
				if err := idx.Bind(page, u); err != nil {
					return err
				}
			}
			return nil
		})
		for _, u := range joiners {
			if _, uerr := idx.Unbind(u); uerr != nil && err == nil {
				err = uerr
			}
		}
		return d, err
	}); err != nil {
		return err
	}
	pages := partition.NewPages(0, nil)
	pages.Put(&partition.Page{ID: page, Members: joiners})
	const batch = 1000
	return p.probe("partition.pages_get_hit_ns", batch, func() (time.Duration, error) {
		return timed(func() error {
			for i := 0; i < batch; i++ {
				if _, err := pages.Get(page); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// enclaveProbes times the ECALLs behind membership ops at a full partition.
func (p *prober) enclaveProbes(_ context.Context, h *harness) error {
	encl := h.sys.encl
	const group = "probe"
	var sealedGK []byte
	var err error
	if err := p.probe("enclave.ecall_new_group_key_us", 1, func() (time.Duration, error) {
		return timed(func() error { sealedGK, err = encl.EcallNewGroupKey(group); return err })
	}); err != nil {
		return err
	}
	// One slot short of full, so that an add fills the partition and a
	// removal takes it back.
	pc, err := encl.EcallCreatePartition(group, sealedGK, probeIDs("probe-e", p.sc.Capacity-1))
	if err != nil {
		return err
	}
	joiner := []string{"probe-joiner@bench"}
	var adds, removes samples
	if err := p.rounds(2, func(int) error {
		t0 := time.Now()
		full, err := encl.EcallAddUsersToPartition(pc.CT, joiner)
		adds.add(float64(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = encl.EcallRemoveUsersFromPartition(group, sealedGK, full, joiner)
		removes.add(float64(time.Since(t0)))
		return err
	}); err != nil {
		return err
	}
	p.setNS("enclave.ecall_add_us", adds)
	p.setNS("enclave.ecall_remove_us", removes)
	if err := p.probe("enclave.ecall_rekey_partition_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, err := encl.EcallRekeyPartition(group, sealedGK, pc.CT); return err })
	}); err != nil {
		return err
	}

	secret, label := make([]byte, 32), []byte("probe")
	var sealed []byte
	if err := p.probe("enclave.seal_us", 1, func() (time.Duration, error) {
		return timed(func() error { sealed, err = encl.Enclave().Seal(secret, label); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("enclave.unseal_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, err := encl.Enclave().Unseal(sealed, label); return err })
	}); err != nil {
		return err
	}
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	return p.probe("enclave.extract_user_key_ms", 1, func() (time.Duration, error) {
		return timed(func() error { _, err := encl.EcallExtractUserKey(joiner[0], priv.PublicKey()); return err })
	})
}

// ibbeProbes times the scheme itself at |p| = capacity, on a key pair of its
// own (the enclave never gives its master secret out).
func (p *prober) ibbeProbes(_ context.Context, _ *harness) error {
	sch := ibbe.NewScheme(p.sc.Params)
	msk, pk, err := sch.Setup(p.sc.Capacity, rand.Reader)
	if err != nil {
		return err
	}
	ids := probeIDs("probe-i", p.sc.Capacity-1)
	const joiner = "probe-joiner@bench"
	var ct, full *ibbe.Ciphertext
	if err := p.probe("ibbe.encrypt_msk_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, ct, err = sch.EncryptMSK(msk, pk, ids, rand.Reader); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("ibbe.add_user_us", 1, func() (time.Duration, error) {
		return timed(func() error { full = sch.AddUser(msk, ct, joiner); return nil })
	}); err != nil {
		return err
	}
	if err := p.probe("ibbe.remove_users_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, _, err := sch.RemoveUsers(msk, pk, full, []string{joiner}, rand.Reader); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("ibbe.rekey_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, _, err := sch.Rekey(pk, ct, rand.Reader); return err })
	}); err != nil {
		return err
	}
	var usk *ibbe.UserKey
	if err := p.probe("ibbe.extract_us", 1, func() (time.Duration, error) {
		return timed(func() error { usk, err = sch.Extract(msk, ids[0]); return err })
	}); err != nil {
		return err
	}
	all := append(append([]string(nil), ids...), joiner)
	if err := p.probe("ibbe.decrypt_ms", 1, func() (time.Duration, error) {
		return timed(func() error { _, err := sch.Decrypt(pk, ids[0], usk, all, full); return err })
	}); err != nil {
		return err
	}
	sch.Metrics = &ibbe.Metrics{}
	if _, err := sch.Decrypt(pk, ids[0], usk, all, full); err != nil {
		return err
	}
	g1, _, pairings, zrMul := sch.Metrics.Snapshot()
	sch.Metrics = nil
	p.res.set("ibbe.g1_exp_per_decrypt", float64(g1), 1)
	p.res.set("ibbe.pairings_per_decrypt", float64(pairings), 1)
	p.res.set("ibbe.zr_mul_per_decrypt", float64(zrMul), 1)

	// Fresh identities every time: HashID memoizes.
	const batch = 64
	round := 0
	return p.probe("ibbe.hash_id_ns", batch, func() (time.Duration, error) {
		fresh := probeIDs(fmt.Sprintf("probe-h%d", round), batch)
		round++
		return timed(func() error {
			for _, id := range fresh {
				sch.HashID(id)
			}
			return nil
		})
	})
}

func (p *prober) pairingProbes(_ context.Context, _ *harness) error {
	pp := p.sc.Params
	a, err := pp.G1.RandPoint(rand.Reader)
	if err != nil {
		return err
	}
	b, err := pp.G1.RandPoint(rand.Reader)
	if err != nil {
		return err
	}
	k, err := pp.G1.RandScalar(rand.Reader)
	if err != nil {
		return err
	}
	gt := pp.Pair(a, b)
	if err := p.probe("pairing.pair_us", 1, func() (time.Duration, error) {
		return timed(func() error { pp.Pair(a, b); return nil })
	}); err != nil {
		return err
	}
	if err := p.probe("pairing.gt_exp_us", 1, func() (time.Duration, error) {
		return timed(func() error { pp.GTExp(gt, k); return nil })
	}); err != nil {
		return err
	}
	return p.probe("curve.g1_scalar_mult_us", 1, func() (time.Duration, error) {
		return timed(func() error { pp.G1.ScalarMult(a, k); return nil })
	})
}

// storageProbes times the store primitives the admin and the members use, on
// a zero-latency MemStore and over loopback HTTP, with a record-sized object.
func (p *prober) storageProbes(ctx context.Context, h *harness) error {
	const dir, name = "probe", "p1"
	blob, err := firstRecord(ctx, h.sys)
	if err != nil {
		return err
	}
	mem := storage.NewMemStore(storage.Latency{})
	srv := httptest.NewServer(storage.NewServer(mem))
	defer srv.Close()
	remote := storage.NewHTTPStore(srv.URL)
	transport := &http.Transport{}
	remote.Client = &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	var version uint64
	putFenced := func(s storage.Store) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			d, err := timed(func() error { return s.PutFenced(ctx, dir, name, blob, version, 1) })
			version++
			return d, err
		}
	}
	if err := p.probe("storage.mem_put_fenced_us", 1, putFenced(mem)); err != nil {
		return err
	}
	if err := p.probe("storage.mem_get_versioned_us", 1, func() (time.Duration, error) {
		return timed(func() error { _, _, err := mem.GetVersioned(ctx, dir, name); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("storage.http_put_fenced_us", 1, putFenced(remote)); err != nil {
		return err
	}
	if err := p.probe("storage.http_get_not_modified_us", 1, func() (time.Duration, error) {
		return timed(func() error {
			_, _, err := remote.GetVersionedIf(ctx, dir, name, version)
			if errors.Is(err, storage.ErrNotModified) {
				return nil
			}
			return fmt.Errorf("want not-modified, got %v", err)
		})
	}); err != nil {
		return err
	}

	// poll_wake: a blocked long poll, then a put; the time from the put to
	// the poller running again.
	woke := make(chan time.Time)
	if err := p.probe("storage.poll_wake_us", 1, func() (time.Duration, error) {
		since := version
		go func() {
			_, _ = mem.Poll(ctx, dir, since)
			woke <- time.Now()
		}()
		time.Sleep(200 * time.Microsecond) // let the poller block
		t0 := time.Now()
		err := mem.PutFenced(ctx, dir, name, blob, version, 1)
		version++
		return (<-woke).Sub(t0), err
	}); err != nil {
		return err
	}

	cache := client.NewRecordCache(mem)
	if _, _, err := cache.Get(ctx, dir, name); err != nil {
		return err
	}
	const batch = 1000
	return p.probe("client.cache_get_hit_ns", batch, func() (time.Duration, error) {
		return timed(func() error {
			for i := 0; i < batch; i++ {
				if _, _, err := cache.Get(ctx, dir, name); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// firstRecord reads one partition record of the workload's end state.
func firstRecord(ctx context.Context, sys *system) ([]byte, error) {
	group := sys.gen.groups[0].Name
	names, err := sys.mem.List(ctx, group)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if isRecordObject(name) {
			return sys.mem.Get(ctx, group, name)
		}
	}
	return nil, fmt.Errorf("no partition record under %s", group)
}

// adminPost builds one admin-API request for a handler.
func adminPost(op string, body map[string]any) *http.Request {
	blob, _ := json.Marshal(body) // strings and string slices always encode
	req := httptest.NewRequest(http.MethodPost, "/admin/"+op, bytes.NewReader(blob))
	req.Header.Set("Content-Type", "application/json")
	return req
}

func serveOnce(h http.Handler, req *http.Request) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code >= 300 {
		return fmt.Errorf("%s: status %d: %s", req.URL.Path, w.Code, w.Body.String())
	}
	return nil
}

// clusterProbes rotates the key of a one-partition group three ways — on the
// owning shard's Admin, through Shard.ServeHTTP, through cluster.Router — and
// reports what the gate and the forward each add.
func (p *prober) clusterProbes(ctx context.Context, _ *harness) error {
	c, err := cluster.New(clusterOptions(p.sc, storage.NewMemStore(storage.Latency{}), 0))
	if err != nil {
		return err
	}
	servers, targets, err := serveCluster(ctx, c, nil)
	if err != nil {
		return err
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	router, err := cluster.NewRouter(c.Membership(), targets)
	if err != nil {
		return err
	}
	transport := &http.Transport{}
	router.Client = &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()

	const group = "probe-1p"
	members := probeIDs("probe-c", (p.sc.Capacity+3)/4)
	if err := serveOnce(router, adminPost("create", map[string]any{"group": group, "members": members})); err != nil {
		return err
	}
	var owner *cluster.Shard
	for _, sh := range c.Shards() {
		if sh.Admin.Manager().HasGroup(group) {
			owner = sh
		}
	}
	if owner == nil {
		return errors.New("no shard owns the probe group")
	}
	rekey := map[string]any{"group": group}
	// Differences are taken within a round: the three calls of one round see
	// the same machine state, two medians of separate series do not.
	var gate, forward samples
	callDirect := func() error { return owner.Admin.RekeyGroup(ctx, group) }
	callGated := func() error { return serveOnce(owner, adminPost("rekey", rekey)) }
	if err := p.rounds(3, func(i int) error {
		// Whichever call follows the routed one of the previous round runs
		// on colder caches, so direct and gated take turns going first.
		first, second := callDirect, callGated
		if i%2 == 1 {
			first, second = callGated, callDirect
		}
		d1, err := timed(first)
		if err != nil {
			return err
		}
		d2, err := timed(second)
		if err != nil {
			return err
		}
		direct, gated := d1, d2
		if i%2 == 1 {
			direct, gated = d2, d1
		}
		routed, err := timed(func() error { return serveOnce(router, adminPost("rekey", rekey)) })
		if err != nil {
			return err
		}
		gate.add(float64(gated - direct))
		forward.add(float64(routed - gated))
		return nil
	}); err != nil {
		return err
	}
	p.setNS("cluster.gate_overhead_us", gate)
	p.setNS("cluster.router_forward_overhead_us", forward)

	ring := c.Ring()
	const batch = 1000
	return p.probe("membership.ring_owner_ns", batch, func() (time.Duration, error) {
		return timed(func() error {
			for i := 0; i < batch; i++ {
				ring.Owner(group)
			}
			return nil
		})
	})
}

// obsOverhead replays one op stream on two 2-shard clusters over zero-latency
// stores, one with the obs plane (Registry + Tracer) attached and one
// without, in alternating blocks, and reports the extra time per op.
func (p *prober) obsOverhead(ctx context.Context, h *harness) error {
	w := spec{Name: "obs_replay", Routed: true, Groups: 4, Members: 4 * p.sc.Capacity, Pinned: 1}
	gen := newGenerator(h.res.Seed, w)
	type arm struct {
		cc      *client.ClusterClient
		elapsed time.Duration
	}
	var arms [2]arm
	for i := range arms {
		opts := clusterOptions(p.sc, storage.NewMemStore(storage.Latency{}), 0)
		if i == 1 {
			opts.Registry, opts.Tracer = obs.NewRegistry(), obs.NewTracer(0)
		}
		c, err := cluster.New(opts)
		if err != nil {
			return err
		}
		servers, _, err := serveCluster(ctx, c, nil)
		if err != nil {
			return err
		}
		defer func() {
			for _, srv := range servers {
				srv.Close()
			}
		}()
		cc, err := client.NewClusterClient(ctx, c.Store, "")
		if err != nil {
			return err
		}
		transport := &http.Transport{}
		cc.HTTP = &http.Client{Transport: transport}
		defer transport.CloseIdleConnections()
		for _, g := range gen.groups {
			if err := cc.CreateGroup(ctx, g.Name, g.Initial); err != nil {
				return err
			}
		}
		arms[i].cc = cc
	}
	const block = 25
	for done := 0; done < p.sc.ObsReplayOps; done += block {
		ops := make([]op, 0, block)
		for i := 0; i < block && done+i < p.sc.ObsReplayOps; i++ {
			ops = append(ops, gen.next())
		}
		// Alternate which arm goes first, so neither always runs on the
		// other's warm caches.
		for j := 0; j < 2; j++ {
			a := &arms[(done/block+j)%2]
			t0 := time.Now()
			for _, o := range ops {
				group := gen.groups[o.Group].Name
				var err error
				if o.Kind == opAdd {
					err = a.cc.AddUser(ctx, group, o.User)
				} else {
					err = a.cc.RemoveUser(ctx, group, o.User)
				}
				if err != nil {
					return fmt.Errorf("obs replay %s %s: %w", o.Kind, o.User, err)
				}
			}
			a.elapsed += time.Since(t0)
		}
	}
	p.res.set("obs.overhead_share", ratio(float64(arms[1].elapsed), float64(arms[0].elapsed))-1, p.sc.ObsReplayOps)
	return nil
}
