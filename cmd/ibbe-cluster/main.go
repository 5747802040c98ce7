// Command ibbe-cluster runs a sharded multi-administrator deployment: N
// enclave-backed admin shards (sharing one master secret on one simulated
// platform) plus the routing gateway, against a cloud store. Group
// ownership is decided by a consistent-hash ring and enforced by lease
// records in the store; the gateway exposes the exact single-admin HTTP
// surface, so existing clients (curl, client.AdminAPI, examples) work
// unchanged against the whole cluster.
//
// Usage:
//
//	ibbe-cluster -shards 3 -listen :9091 \
//	             [-store http://127.0.0.1:8080]   (empty = embedded in-memory store)
//	             [-capacity 1000] [-params fast-160|medium-256|paper-512] \
//	             [-lease-ttl 15s] [-workers N] [-resident-pages N]
//	             [-provisioning sealed|threshold] [-platform-state cluster.platform]
//
// One shard (-shards 1) is the single-administrator deployment. Drive the
// gateway with curl (or examples/filesharing, or client.AdminAPI), and point
// ibbe-client's -admin at it for key provisioning (/provision, /info):
//
//	curl -X POST :9091/admin/create       -d '{"group":"g","members":["a","b"]}'
//	curl -X POST :9091/admin/add          -d '{"group":"g","user":"c"}'
//	curl -X POST :9091/admin/remove       -d '{"group":"g","user":"a"}'
//	curl -X POST :9091/admin/add-batch    -d '{"group":"g","users":["d","e","f"]}'
//	curl -X POST :9091/admin/remove-batch -d '{"group":"g","users":["b","c"]}'
//	curl ':9091/admin/members?group=g&limit=1000'
//
// The batch routes coalesce the whole batch into one re-key pass per touched
// partition; -workers bounds each shard's per-partition fan-out (0 = all
// CPUs). The members route is paged — walk arbitrarily large groups with the
// returned "next" cursor (client.AdminAPI.AllMembers does this for you).
// -resident-pages bounds each group's in-memory partition-page cache:
// untouched pages evict and rehydrate from the store on demand, keeping
// per-op memory O(partition) instead of O(group).
//
// The member set is elastic. The gateway's control API lives under
// /admin/cluster/v1/ and answers every request with the uniform envelope
// {"epoch":…,"status":"ok"|"error","error":{"code","msg"},"result":…}.
// Membership changes bump the epoch, move only the joining/leaving shard's
// arc, and fence out writes from the superseded epoch:
//
//	curl :9091/admin/cluster/v1/membership                                  (status)
//	curl -X POST :9091/admin/cluster/v1/membership -d '{"action":"add"}'    (grow)
//	curl -X POST :9091/admin/cluster/v1/membership -d '{"action":"drain","shard":"shard-2"}'
//	curl :9091/admin/cluster/v1/dkg                                         (key-provisioning status)
//
// The membership itself is STORE-BACKED: every change is CAS-published to
// the cloud store (fenced by its epoch) before it takes effect, and the
// process follows the record through one view, which the router routes on.
// Restart the whole process against a durable store (-store pointing at a
// cloudsim run with -data) and it re-adopts the persisted epoch and member
// set instead of resetting — the -shards flag only sizes a FRESH store. For
// the sealed blobs to survive that restart too (above all the threshold
// share blobs in the membership record), pass -platform-state FILE: the
// simulated platform's sealing keys persist there, standing in for the
// hardware fuses a real SGX machine keeps across reboots. Without it a
// restarted process is a NEW machine and cannot unseal anything the old one
// sealed.
//
// An optional autoscaler (-autoscale) watches per-shard load (groups
// owned × weighted crypto-op rate) and drives the same grow/drain path
// automatically:
//
//	curl :9091/admin/cluster/v1/autoscale                                   (status + live loads + decision log)
//	curl -X POST :9091/admin/cluster/v1/autoscale -d '{"action":"enable","min":2,"max":6}'
//	curl -X POST :9091/admin/cluster/v1/autoscale -d '{"action":"disable"}'
//
// The observability plane (on by default, -obs=false to disable) exposes
// Prometheus text metrics and recent request traces:
//
//	curl :9091/metrics                       (cluster-wide exposition; shards serve their own /metrics too)
//	curl :9091/admin/cluster/v1/traces       (recent traces: router sweep → shard → ECALL → store spans)
//	ibbe-cluster -obs-slow 500ms             (log any traced op slower than the threshold)
//	ibbe-cluster -pprof-addr 127.0.0.1:6060  (net/http/pprof on a dedicated listener)
//
// Kill a shard (it logs its port) and the next request for its groups fails
// over: a peer waits out the lease, reclaims the groups from the cloud and
// rotates their keys.
package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	// Registers the profiling handlers on http.DefaultServeMux only; the
	// gateway serves its own mux, so they are reachable solely through the
	// dedicated -pprof-addr listener.
	_ "net/http/pprof"
	"os"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// options carries the parsed flags.
type options struct {
	shards        int
	listen        string
	shardHost     string
	storeURL      string
	capacity      int
	paramsName    string
	leaseTTL      time.Duration
	workers       int
	residentPages int
	provision     string
	platformState string

	autoscale bool
	asCfg     cluster.AutoscalerConfig

	obsOn     bool
	obsTraces int
	obsSlow   time.Duration
	pprofAddr string
}

func main() {
	var o options
	flag.IntVar(&o.shards, "shards", 3, "number of admin shards for a FRESH store (a persisted membership record wins)")
	flag.StringVar(&o.listen, "listen", ":9091", "address the routing gateway serves on")
	flag.StringVar(&o.shardHost, "shard-host", "127.0.0.1", "host the per-shard listeners bind and publish; set a reachable address so gateway-less clients can route direct-to-shard")
	flag.StringVar(&o.storeURL, "store", "", "cloudsim base URL (empty = embedded in-memory store)")
	flag.IntVar(&o.capacity, "capacity", 1000, "partition capacity |p|")
	flag.StringVar(&o.paramsName, "params", "fast-160", "pairing scale: fast-160, medium-256, paper-512")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", cluster.DefaultLeaseTTL, "group lease duration (failover latency bound)")
	flag.IntVar(&o.workers, "workers", 0, "per-shard partition worker-pool size (0 = number of CPUs)")
	flag.IntVar(&o.residentPages, "resident-pages", 0, "per-group resident partition-page bound (0 = unbounded)")
	flag.StringVar(&o.provision, "provisioning", "sealed", "master-key provisioning: sealed (every enclave holds the full secret) or threshold (Feldman-VSS shares, no enclave ever reconstructs it)")
	flag.StringVar(&o.platformState, "platform-state", "", "file persisting the simulated platform's sealing/attestation keys (created 0600 if absent); REQUIRED for a threshold restart to re-adopt the sealed share blobs — a fresh platform cannot unseal them")
	flag.BoolVar(&o.autoscale, "autoscale", false, "start the load-driven autoscaler")
	flag.IntVar(&o.asCfg.Min, "autoscale-min", 0, "autoscaler: minimum member count (0 = the boot member count)")
	flag.IntVar(&o.asCfg.Max, "autoscale-max", 0, "autoscaler: maximum member count (0 = default)")
	flag.Float64Var(&o.asCfg.GrowLoad, "autoscale-grow", 0, "autoscaler: per-member load above which to grow (0 = default)")
	flag.Float64Var(&o.asCfg.ShrinkLoad, "autoscale-shrink", 0, "autoscaler: per-member load below which to drain (0 = default)")
	flag.DurationVar(&o.asCfg.Interval, "autoscale-interval", 0, "autoscaler: sampling/decision period (0 = default)")
	flag.Float64Var(&o.asCfg.QueueWeight, "autoscale-queue-weight", 0, "autoscaler: load units per queued router request (0 = default, negative = off)")
	flag.Float64Var(&o.asCfg.StealWeight, "autoscale-steal-weight", 0, "autoscaler: load units per lease steal/s (0 = default, negative = off)")
	flag.BoolVar(&o.obsOn, "obs", true, "enable the observability plane: GET /metrics, request tracing, /admin/cluster/v1/traces")
	flag.IntVar(&o.obsTraces, "obs-traces", 64, "trace ring capacity (recent traces kept for the dump endpoint)")
	flag.DurationVar(&o.obsSlow, "obs-slow", 0, "log any traced operation slower than this (0 = off)")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ibbe-cluster:", err)
		os.Exit(1)
	}
}

// run boots the deployment and serves the gateway until it fails.
func run(o options) error {
	if o.pprofAddr != "" {
		go func() {
			log.Printf("ibbe-cluster: pprof serving on %s", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				log.Printf("ibbe-cluster: pprof server: %v", err)
			}
		}()
	}
	g, err := start(context.Background(), o)
	if err != nil {
		return err
	}
	log.Printf("ibbe-cluster: gateway serving on %s (lease TTL %v, membership epoch %d)", o.listen, o.leaseTTL, g.c.Epoch())
	return http.ListenAndServe(o.listen, g)
}

// start wires the store, the cluster, its shard listeners, the router and
// the autoscaler, and returns the gateway ready to serve. ctx bounds the
// boot-time store calls; the cluster follows the persisted membership
// record until it shuts down.
func start(ctx context.Context, o options) (*gateway, error) {
	shards, storeURL := o.shards, o.storeURL
	capacity, leaseTTL, workers := o.capacity, o.leaseTTL, o.workers
	params, err := pairing.ByScale(o.paramsName)
	if err != nil {
		return nil, err
	}

	var store storage.Store
	if storeURL == "" {
		store = storage.NewMemStore(storage.Latency{})
		log.Printf("ibbe-cluster: embedded in-memory cloud store")
	} else {
		store = storage.NewHTTPStore(storeURL)
		log.Printf("ibbe-cluster: cloud store at %s", storeURL)
	}

	log.Printf("ibbe-cluster: setting up %d shards (m=%d, %s)…", shards, capacity, params.Name())
	provisioning := cluster.ProvisioningMode(o.provision)
	platform, err := loadOrCreatePlatform(o.platformState)
	if err != nil {
		return nil, err
	}
	// The observability plane: one registry and one tracer shared by the
	// cluster, every shard and the router, so the gateway's /metrics and
	// trace dump see the whole process. Both stay nil when disabled — every
	// instrumented path degrades to a no-op.
	var registry *obs.Registry
	var tracer *obs.Tracer
	if o.obsOn {
		registry = obs.NewRegistry()
		tracer = obs.NewTracer(o.obsTraces)
		tracer.Slow = o.obsSlow
		tracer.Logf = log.Printf
	}
	if o.platformState == "" && (provisioning == cluster.ProvisionThreshold || storeURL != "") {
		log.Printf("ibbe-cluster: WARNING: no -platform-state; sealed blobs (threshold shares, MSK) die with this process — a restart against the same store cannot re-adopt them")
	}
	c, err := cluster.New(cluster.Options{
		Shards:           shards,
		Capacity:         capacity,
		Params:           params,
		Store:            store,
		LeaseTTL:         leaseTTL,
		Workers:          workers,
		MaxResidentPages: o.residentPages,
		Seed:             1,
		Provisioning:     provisioning,
		Platform:         platform,
		Registry:         registry,
		Tracer:           tracer,
	})
	if err != nil {
		return nil, err
	}
	boot := c.Membership()
	if boot.Epoch > 1 {
		// A persisted membership record was adopted: the store, not the
		// -shards flag, named the member set. Restart-safe boot.
		log.Printf("ibbe-cluster: adopted persisted membership epoch %d over %v", boot.Epoch, boot.Members())
	}

	g := &gateway{c: c, targets: make(map[string]string), reg: registry, tracer: tracer, shardHost: o.shardHost}
	// Published membership records and the cluster's view carry the live
	// shard URLs, so the router, direct-routing clients and a second gateway
	// resolve every member.
	c.Targets = g.targetSnapshot
	// Each shard listens on its own ephemeral port; the gateway is the only
	// address clients need.
	for _, s := range c.Shards() {
		if err := g.serveShard(s); err != nil {
			return nil, err
		}
	}
	// The boot-time record was published before any listener existed:
	// stamp the live URLs into it so direct-routing clients resolve us.
	if err := c.PublishTargets(ctx); err != nil {
		log.Printf("ibbe-cluster: publishing target URLs: %v", err)
	}
	// The router sweeps the cluster's own view: every membership change,
	// applied here or published by anyone else, moves routing before any
	// shard drains, and the cluster's one watch loop follows the record.
	router, err := c.NewRouter()
	if err != nil {
		return nil, err
	}
	// One request must be able to wait out a dead shard's lease.
	router.RouteTimeout = 2*leaseTTL + 10*time.Second
	router.Instrument(registry, tracer)
	g.rt = router
	c.Start()

	asCfg := o.asCfg
	if asCfg.Min == 0 {
		asCfg.Min = len(boot.Members())
	}
	g.installAutoscaler(cluster.NewAutoscaler(c, asCfg))
	if o.autoscale {
		g.as.Start()
		eff := g.as.Config()
		log.Printf("ibbe-cluster: autoscaler on (members %d..%d, grow>%.0f, shrink<%.0f, every %v)",
			eff.Min, eff.Max, eff.GrowLoad, eff.ShrinkLoad, eff.Interval)
	}
	return g, nil
}

// loadOrCreatePlatform resolves the simulated SGX platform: a persisted
// state file is reloaded (same sealing keys, so blobs from the previous run
// — threshold share blobs above all — open again); an absent file is
// created from a fresh platform; an empty path returns nil and cluster.New
// mints an ephemeral platform as before.
func loadOrCreatePlatform(path string) (*enclave.Platform, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		p, err := enclave.LoadPlatform(data)
		if err != nil {
			return nil, fmt.Errorf("loading platform state %s: %w", path, err)
		}
		log.Printf("ibbe-cluster: platform state reloaded from %s (id %s)", path, p.ID())
		return p, nil
	case errors.Is(err, os.ErrNotExist):
		p, err := enclave.NewPlatform("cluster-platform", rand.Reader)
		if err != nil {
			return nil, err
		}
		state, err := p.MarshalState()
		if err != nil {
			return nil, err
		}
		// The state embeds the root sealing secret — the fused hardware
		// secret's stand-in — so it is written owner-only.
		if err := os.WriteFile(path, state, 0o600); err != nil {
			return nil, fmt.Errorf("persisting platform state: %w", err)
		}
		log.Printf("ibbe-cluster: fresh platform state persisted to %s", path)
		return p, nil
	default:
		return nil, fmt.Errorf("reading platform state %s: %w", path, err)
	}
}

// gateway fronts the router with the cluster-control surface: the
// membership and autoscale endpoints mutate the member set; everything
// else forwards.
type gateway struct {
	c         *cluster.Cluster
	rt        *cluster.Router
	reg       *obs.Registry
	tracer    *obs.Tracer
	shardHost string

	mu      sync.Mutex
	targets map[string]string
	as      *cluster.Autoscaler
}

// installAutoscaler swaps the controller (stopping any predecessor), wires
// its mint hook to the gateway's shard servers, and feeds it the router's
// queue depth as a scaling signal.
func (g *gateway) installAutoscaler(as *cluster.Autoscaler) {
	as.OnMint = g.serveShard
	if g.rt != nil {
		as.Signals.QueueDepth = g.rt.QueueDepth
	}
	g.mu.Lock()
	old := g.as
	g.as = as
	g.mu.Unlock()
	if old != nil {
		old.Stop()
	}
}

func (g *gateway) autoscaler() *cluster.Autoscaler {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.as
}

// serveShard gives one shard its own listener and records the target URL.
// The published URL is what gateway-less clients dial, so the bind host
// (-shard-host) must be reachable from them — the loopback default only
// serves single-machine deployments.
func (g *gateway) serveShard(s *cluster.Shard) error {
	host := g.shardHost
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String()
	g.mu.Lock()
	g.targets[s.ID] = url
	g.mu.Unlock()
	log.Printf("ibbe-cluster: %s serving on %s", s.ID, ln.Addr())
	go func() {
		if err := http.Serve(ln, s); err != nil {
			log.Printf("ibbe-cluster: shard server: %v", err)
		}
	}()
	return nil
}

func (g *gateway) targetSnapshot() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]string, len(g.targets))
	for id, u := range g.targets {
		out[id] = u
	}
	return out
}

func (g *gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/metrics":
		// Cluster-wide exposition: the registry is shared by the router,
		// every shard, the storage decorator and the DKG provisioner. Nil
		// registry (observability off) answers 404 from the obs handler.
		g.reg.Handler().ServeHTTP(w, r)
	case "/admin/cluster/v1/traces":
		g.handleTraces(w, r)
	case "/admin/cluster/v1/membership":
		g.handleMembership(w, r)
	case "/admin/cluster/v1/autoscale":
		g.handleAutoscale(w, r)
	case "/admin/cluster/v1/dkg":
		g.handleDKG(w, r)
	default:
		g.rt.ServeHTTP(w, r)
	}
}

// handleDKG reports the key-provisioning state: mode (sealed vs threshold)
// and, in threshold mode, the sharing's generation, degree, quorum sizes,
// holder set and completed-reshare count.
func (g *gateway) handleDKG(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		admin.WriteEnvelopeError(w, http.StatusMethodNotAllowed, g.c.Epoch(), admin.CodeBadRequest, "method not allowed")
		return
	}
	admin.WriteEnvelope(w, g.c.Epoch(), g.c.Provisioner().Status())
}

// handleTraces dumps the recent-trace ring, most recent first: every routed
// request's span tree (router sweep → shard forward → admin op → ECALL →
// store writes), merged across the router and shard halves by trace ID.
func (g *gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		admin.WriteEnvelopeError(w, http.StatusMethodNotAllowed, g.c.Epoch(), admin.CodeBadRequest, "method not allowed")
		return
	}
	if g.tracer == nil {
		admin.WriteEnvelopeError(w, http.StatusNotFound, g.c.Epoch(), admin.CodeBadRequest, "cluster: tracing disabled (-obs=false)")
		return
	}
	admin.WriteEnvelope(w, g.c.Epoch(), g.tracer.Snapshot())
}

// handleAutoscale serves the autoscaler control endpoint:
//
//	GET  → cluster.AutoscalerStatus (config, live per-shard loads, last action)
//	POST {"action":"enable", "min":2,"max":6,"grow_load":...,"shrink_load":...,"interval":"2s"}
//	POST {"action":"disable"}
//
// Enable with any bound/threshold set rebuilds the controller with that
// configuration; omitted fields take the defaults.
func (g *gateway) handleAutoscale(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		admin.WriteEnvelope(w, g.c.Epoch(), g.autoscaler().Status())
	case http.MethodPost:
		var req struct {
			Action     string  `json:"action"`
			Min        int     `json:"min,omitempty"`
			Max        int     `json:"max,omitempty"`
			GrowLoad   float64 `json:"grow_load,omitempty"`
			ShrinkLoad float64 `json:"shrink_load,omitempty"`
			Interval   string  `json:"interval,omitempty"`
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil || json.Unmarshal(body, &req) != nil {
			admin.WriteEnvelopeError(w, http.StatusBadRequest, g.c.Epoch(), admin.CodeBadRequest, "cluster: bad autoscale request")
			return
		}
		switch req.Action {
		case "enable":
			// A plain enable resumes the existing controller with its
			// current configuration; any explicit field rebuilds it (with
			// Min defaulting to the live member count).
			if req.Min != 0 || req.Max != 0 || req.GrowLoad != 0 || req.ShrinkLoad != 0 || req.Interval != "" {
				cfg := cluster.AutoscalerConfig{
					Min: req.Min, Max: req.Max,
					GrowLoad: req.GrowLoad, ShrinkLoad: req.ShrinkLoad,
				}
				if req.Interval != "" {
					if cfg.Interval, err = time.ParseDuration(req.Interval); err != nil {
						admin.WriteEnvelopeError(w, http.StatusBadRequest, g.c.Epoch(), admin.CodeBadRequest, "cluster: bad interval: "+err.Error())
						return
					}
				}
				if cfg.Min == 0 {
					cfg.Min = len(g.c.Membership().Members())
				}
				g.installAutoscaler(cluster.NewAutoscaler(g.c, cfg))
			}
			as := g.autoscaler()
			as.Start()
			log.Printf("ibbe-cluster: autoscaler enabled (%+v)", as.Config())
			admin.WriteEnvelope(w, g.c.Epoch(), as.Status())
		case "disable":
			as := g.autoscaler()
			as.Stop()
			log.Printf("ibbe-cluster: autoscaler disabled")
			admin.WriteEnvelope(w, g.c.Epoch(), as.Status())
		default:
			admin.WriteEnvelopeError(w, http.StatusBadRequest, g.c.Epoch(), admin.CodeBadRequest, fmt.Sprintf("cluster: unknown action %q (want enable or disable)", req.Action))
		}
	default:
		admin.WriteEnvelopeError(w, http.StatusMethodNotAllowed, g.c.Epoch(), admin.CodeBadRequest, "method not allowed")
	}
}

// membershipStatus is the control endpoint's GET (and mutation) response.
// Warning, when set, reports a hand-off step that failed AFTER the change
// took effect (the epoch advanced and routing switched): the operator must
// NOT retry the change — the affected leases heal through TTL expiry.
type membershipStatus struct {
	Epoch   uint64            `json:"epoch"`
	Members []string          `json:"members"`
	Targets map[string]string `json:"targets"`
	Warning string            `json:"warning,omitempty"`
}

func (g *gateway) status() membershipStatus {
	m := g.c.Membership()
	return membershipStatus{Epoch: m.Epoch, Members: m.Members(), Targets: g.targetSnapshot()}
}

// writeApplied reports a membership change that took effect. A hand-off
// error is a warning, not a failure: answering 5xx would invite the
// operator to retry a change that is already live (minting yet another
// shard); the leases behind the warning heal through TTL expiry.
func (g *gateway) writeApplied(w http.ResponseWriter, handOffErr error) {
	st := g.status()
	if handOffErr != nil {
		st.Warning = handOffErr.Error()
		log.Printf("ibbe-cluster: membership applied with hand-off warning: %v", handOffErr)
	}
	admin.WriteEnvelope(w, st.Epoch, st)
}

// handleMembership serves the elastic-membership control endpoint:
//
//	GET  → {"epoch": e, "members": [...], "targets": {...}}
//	POST {"action":"add"}                  → mint + admit a shard
//	POST {"action":"drain","shard":"id"}   → hand the shard's groups off
func (g *gateway) handleMembership(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		st := g.status()
		admin.WriteEnvelope(w, st.Epoch, st)
	case http.MethodPost:
		var req struct {
			Action string `json:"action"`
			Shard  string `json:"shard,omitempty"`
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil || json.Unmarshal(body, &req) != nil {
			admin.WriteEnvelopeError(w, http.StatusBadRequest, g.c.Epoch(), admin.CodeBadRequest, "cluster: bad membership request")
			return
		}
		switch req.Action {
		case "add":
			s, err := g.c.AddShard()
			if err != nil {
				admin.WriteEnvelopeError(w, http.StatusInternalServerError, g.c.Epoch(), admin.CodeInternal, err.Error())
				return
			}
			if err := g.serveShard(s); err != nil {
				admin.WriteEnvelopeError(w, http.StatusInternalServerError, g.c.Epoch(), admin.CodeInternal, err.Error())
				return
			}
			m, err := g.c.Admit(r.Context(), s.ID)
			if m == nil {
				admin.WriteEnvelopeError(w, http.StatusInternalServerError, g.c.Epoch(), admin.CodeInternal, err.Error())
				return
			}
			log.Printf("ibbe-cluster: %s admitted at membership epoch %d", s.ID, m.Epoch)
			g.writeApplied(w, err)
		case "drain":
			if req.Shard == "" {
				admin.WriteEnvelopeError(w, http.StatusBadRequest, g.c.Epoch(), admin.CodeBadRequest, "cluster: drain needs a shard id")
				return
			}
			m, err := g.c.RemoveShard(r.Context(), req.Shard)
			if m == nil {
				admin.WriteEnvelopeError(w, http.StatusConflict, g.c.Epoch(), admin.CodeConflict, err.Error())
				return
			}
			log.Printf("ibbe-cluster: %s drained at membership epoch %d", req.Shard, m.Epoch)
			g.writeApplied(w, err)
		default:
			admin.WriteEnvelopeError(w, http.StatusBadRequest, g.c.Epoch(), admin.CodeBadRequest, fmt.Sprintf("cluster: unknown action %q (want add or drain)", req.Action))
		}
	default:
		admin.WriteEnvelopeError(w, http.StatusMethodNotAllowed, g.c.Epoch(), admin.CodeBadRequest, "method not allowed")
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
