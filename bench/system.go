package main

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// adminAPI is what the admin driver calls: admin.Admin directly, or
// client.ClusterClient over loopback HTTP.
type adminAPI interface {
	CreateGroup(ctx context.Context, group string, members []string) error
	AddUser(ctx context.Context, group, user string) error
	RemoveUser(ctx context.Context, group, user string) error
}

// managerSeed feeds the product's partition-picking randomness. It is a
// constant: the product never receives the bench seed.
const managerSeed = 1

// productWorkers is the parallelism of every core.Manager and, through it,
// of the curve layer's process-wide multi-exponentiation pool, which the
// member clients share. The box has two cores and the harness keeps two load
// goroutines busy, so the product gets no extra threads: at the default
// (NumCPU) a revocation sweep runs two workers next to the reader and the
// watcher — four runnable threads on two cores, in chunks that each wait for
// their slower half — and remove_p50_ms measured how the scheduler
// interleaved them: with a neighbour taking 30 % of one vCPU it rose by 20 %,
// serial by 5 %.
const productWorkers = 1

// system is one workload's system under test plus the member-side fixtures
// (keys, warm clients, shared record cache) and the generator that feeds it.
type system struct {
	w   spec
	sc  scale
	rec *recorder // nil in the untraced run

	mem *storage.MemStore
	// adminStore and memberStore are the two handles onto mem: the raw store
	// in the untraced run, separately decorated in the traced run.
	adminStore  storage.Store
	memberStore storage.Store

	api adminAPI
	// admins are the admins that can own a group: the shards' or the direct one.
	admins  []*admin.Admin
	cc      *client.ClusterClient
	servers []*httptest.Server
	httpc   *http.Transport

	encl   *enclave.IBBEEnclave
	scheme *ibbe.Scheme
	pk     *ibbe.PublicKey

	gen   *generator
	keys  map[string]*ibbe.UserKey
	cache *client.RecordCache
	// warm[g] are the reader's clients for group g's pinned members.
	warm [][]*client.Client
	// watchGroup / watchUser name the watcher: a pinned member of the
	// Zipf-rank-2 group that the reader never uses.
	watchGroup int
	watchUser  string
}

// clusterOptions are the options of a 2-shard benchmark cluster over store.
func clusterOptions(sc scale, store storage.Store, maxResident int) cluster.Options {
	return cluster.Options{
		Shards:     2,
		Capacity:   sc.Capacity,
		Params:     sc.Params,
		ParamsName: sc.ParamsName,
		Store:      store,
		// No lease expiry or renewal traffic inside a run.
		LeaseTTL:         10 * time.Minute,
		Seed:             managerSeed,
		Workers:          productWorkers,
		MaxResidentPages: maxResident,
	}
}

// serveCluster puts every shard behind a loopback HTTP server (optionally
// wrapped) and publishes the URLs in the membership record, as
// cmd/ibbe-cluster does.
func serveCluster(ctx context.Context, c *cluster.Cluster, wrap func(http.Handler) http.Handler) ([]*httptest.Server, map[string]string, error) {
	targets := make(map[string]string)
	var servers []*httptest.Server
	for _, sh := range c.Shards() {
		var h http.Handler = sh
		if wrap != nil {
			h = wrap(h)
		}
		srv := httptest.NewServer(h)
		servers = append(servers, srv)
		targets[sh.ID] = srv.URL
	}
	c.Targets = func() map[string]string { return targets }
	if err := c.PublishTargets(ctx); err != nil {
		for _, srv := range servers {
			srv.Close()
		}
		return nil, nil, err
	}
	return servers, targets, nil
}

// newDirectAdmin builds one CAS-mode admin over store with its own enclave —
// the mode the cluster's shards run, without the cluster.
func newDirectAdmin(sc scale, store storage.Store, maxResident int) (*admin.Admin, *enclave.IBBEEnclave, error) {
	platform, err := enclave.NewPlatform("bench-platform", rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	encl, err := enclave.NewIBBEEnclave(platform, sc.Params)
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := encl.EcallSetup(sc.Capacity); err != nil {
		return nil, nil, err
	}
	adm, err := newAdminOn(encl, sc, store, maxResident, "admin-0")
	return adm, encl, err
}

// newAdminOn builds a CAS-mode admin with its own core.Manager on an
// existing enclave (also how the standby of the restore cycles is made).
func newAdminOn(encl *enclave.IBBEEnclave, sc scale, store storage.Store, maxResident int, name string) (*admin.Admin, error) {
	mgr, err := core.NewManager(encl, sc.Capacity, managerSeed)
	if err != nil {
		return nil, err
	}
	mgr.SetParallelism(productWorkers)
	mgr.SetMaxResidentPages(maxResident)
	opLog, err := core.NewOpLog()
	if err != nil {
		return nil, err
	}
	adm := admin.New(name, mgr, store, opLog)
	adm.EnableCAS()
	return adm, nil
}

// buildSystem boots the workload's system, creates its groups from the
// generator's initial membership, provisions keys for pinned members and
// canaries and warms the reader's clients. Everything it does is part of
// setup_s, but for the box-speed kernel it runs between steps.
func buildSystem(ctx context.Context, w spec, sc scale, seed int64, rec *recorder, box *boxClock) (*system, error) {
	s := &system{w: w, sc: sc, rec: rec, keys: make(map[string]*ibbe.UserKey)}
	s.mem = storage.NewMemStore(w.Latency)
	s.adminStore, s.memberStore = s.mem, s.mem
	if rec != nil {
		s.adminStore = &spanStore{inner: s.mem, rec: rec, admin: true}
		s.memberStore = &spanStore{inner: s.mem, rec: rec}
	}

	if w.Routed {
		c, err := cluster.New(clusterOptions(sc, s.adminStore, w.MaxResident))
		if err != nil {
			return nil, err
		}
		var wrap func(http.Handler) http.Handler
		if rec != nil {
			wrap = func(h http.Handler) http.Handler { return &spanHandler{inner: h, rec: rec} }
		}
		if s.servers, _, err = serveCluster(ctx, c, wrap); err != nil {
			return nil, err
		}
		cc, err := client.NewClusterClient(ctx, s.mem, "")
		if err != nil {
			s.close()
			return nil, err
		}
		s.httpc = &http.Transport{MaxIdleConnsPerHost: 4}
		cc.HTTP = &http.Client{Transport: s.httpc}
		if rec != nil {
			cc.HTTP.Transport = &spanTransport{base: s.httpc, rec: rec}
		}
		s.cc, s.api = cc, cc
		for _, sh := range c.Shards() {
			s.admins = append(s.admins, sh.Admin)
		}
		s.encl = c.Shards()[0].Encl
	} else {
		adm, encl, err := newDirectAdmin(sc, s.adminStore, w.MaxResident)
		if err != nil {
			return nil, err
		}
		s.api, s.admins, s.encl = adm, []*admin.Admin{adm}, encl
	}
	s.scheme = s.encl.Scheme()
	s.pk = s.admins[0].Manager().PublicKey()

	s.gen = newGenerator(seed, w)
	for _, g := range s.gen.groups {
		if err := s.api.CreateGroup(ctx, g.Name, g.Initial); err != nil {
			s.close()
			return nil, fmt.Errorf("creating %s: %w", g.Name, err)
		}
		box.tick()
	}
	if err := s.provisionMembers(ctx, box); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// provisionMembers extracts keys for every pinned member and canary and
// brings the reader's clients to a derived key.
func (s *system) provisionMembers(ctx context.Context, box *boxClock) error {
	for _, g := range s.gen.groups {
		for _, list := range [][]string{g.Pinned, g.canaries} {
			for _, u := range list {
				priv, err := ecdh.P256().GenerateKey(rand.Reader)
				if err != nil {
					return err
				}
				prov, err := s.encl.EcallExtractUserKey(u, priv.PublicKey())
				if err != nil {
					return err
				}
				uk, err := prov.Open(s.scheme, s.encl.IdentityPublicKey(), priv)
				if err != nil {
					return err
				}
				s.keys[u] = uk
				box.tick()
			}
		}
	}

	s.cache = client.NewRecordCache(s.memberStore)
	s.watchGroup = 0
	if len(s.gen.groups) > 1 {
		s.watchGroup = 1 // Zipf rank 2
	}
	s.watchUser = s.gen.groups[s.watchGroup].Pinned[0]
	var all []*client.Client
	for gi, g := range s.gen.groups {
		var row []*client.Client
		for _, u := range g.Pinned {
			if gi == s.watchGroup && u == s.watchUser {
				continue
			}
			cl, err := s.newClient(u, g.Name, s.memberStore)
			if err != nil {
				return err
			}
			row = append(row, cl)
		}
		s.warm = append(s.warm, row)
		all = append(all, row...)
	}
	return refreshAll(ctx, all)
}

// newClient builds a member client on the shared record cache.
func (s *system) newClient(user, group string, store storage.Store) (*client.Client, error) {
	cl, err := client.New(s.scheme, s.pk, user, s.keys[user], store, group)
	if err != nil {
		return nil, err
	}
	cl.SetCache(s.cache)
	return cl, nil
}

// observeVersion tells the shared cache the group's current directory
// version, as a member's own long poll would have: only the watcher really
// polls, so every other read learns the version this way first. MemStore
// answers Version without an injected delay.
func (s *system) observeVersion(ctx context.Context, group string) {
	if v, err := s.mem.Version(ctx, group); err == nil {
		s.cache.ObserveVersion(group, v)
	}
}

// refreshAll refreshes the clients from one goroutine per core and returns
// the first error.
func refreshAll(ctx context.Context, clients []*client.Client) error {
	const workers = 2
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(clients); i += workers {
				if _, err := clients[i].Refresh(ctx); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("%s in %s: %w", clients[i].ID(), clients[i].Group(), err)
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// owner returns the admin whose manager holds the group.
func (s *system) owner(group string) *admin.Admin {
	for _, a := range s.admins {
		if a.Manager().HasGroup(group) {
			return a
		}
	}
	return nil
}

// close stops the loopback servers and drops idle connections.
func (s *system) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.httpc != nil {
		s.httpc.CloseIdleConnections()
	}
}
