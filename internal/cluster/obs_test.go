package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// obsCluster starts the standard test deployment with the observability
// plane on, exactly as cmd/ibbe-cluster wires it.
func obsCluster(t *testing.T, opts Options) (*testCluster, *obs.Registry, *obs.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(32)
	opts.Registry = reg
	opts.Tracer = tracer
	return startCluster(t, opts), reg, tracer
}

// TestClusterMetricsExposition is the golden test for the /metrics surface:
// after real traffic, a shard's exposition must be structurally valid
// Prometheus text AND declare every stable family name with its pinned
// type. Renaming or retyping a family breaks dashboards silently — this
// test makes it loud.
func TestClusterMetricsExposition(t *testing.T) {
	tc, reg, _ := obsCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
	ctx := context.Background()

	if err := tc.api.CreateGroup(ctx, "obs-g", groupUsers("obs-g", 3)); err != nil {
		t.Fatal(err)
	}
	if err := tc.api.AddUser(ctx, "obs-g", "obs-new@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := tc.api.RemoveUser(ctx, "obs-g", "obs-new@example.com"); err != nil {
		t.Fatal(err)
	}

	// The client-side data plane (direct-routing admin client + record
	// cache) registers its families in the same registry — the co-located
	// deployment cmd/ibbe-client wires — so its counters join the same
	// scrape surface.
	cc, err := client.NewClusterClient(ctx, tc.c.Store, "")
	if err != nil {
		t.Fatal(err)
	}
	cc.Instrument(reg)
	cc.RetryInterval = 20 * time.Millisecond
	cache := client.NewRecordCache(tc.c.Store).Instrument(reg)
	cc.Cache = cache
	if err := cc.AddUser(ctx, "obs-g", "obs-direct@example.com"); err != nil {
		t.Fatalf("direct-routed op: %v", err)
	}
	names, err := tc.c.Store.List(ctx, "obs-g")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "_") {
			continue
		}
		// Twice: one miss (upstream GET), one version-current hit.
		for i := 0; i < 2; i++ {
			if _, _, err := cache.Get(ctx, "obs-g", name); err != nil {
				t.Fatal(err)
			}
		}
		break
	}

	// Scrape through a shard's HTTP surface — the same bytes CI scrapes —
	// not just the in-process registry.
	var srvURL string
	for _, srv := range tc.srvs {
		srvURL = srv.URL
		break
	}
	resp, err := http.Get(srvURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	families, err := obs.ValidateExposition(body)
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, body)
	}
	// The golden family inventory. Every name and type here is public API
	// for scrape configs: additions are fine, renames and retypes are not.
	golden := map[string]string{
		"ibbe_router_requests_total":            "counter",
		"ibbe_router_request_seconds":           "histogram",
		"ibbe_router_served_total":              "counter",
		"ibbe_router_failovers_total":           "counter",
		"ibbe_router_fenced_refreshes_total":    "counter",
		"ibbe_router_health_skips_total":        "counter",
		"ibbe_router_inflight":                  "gauge",
		"ibbe_admin_op_seconds":                 "histogram",
		"ibbe_admin_op_errors_total":            "counter",
		"ibbe_store_ops_total":                  "counter",
		"ibbe_store_op_seconds":                 "histogram",
		"ibbe_store_cas_conflicts_total":        "counter",
		"ibbe_store_fence_rejections_total":     "counter",
		"ibbe_lease_events_total":               "counter",
		"ibbe_ecall_seconds":                    "histogram",
		"ibbe_dkg_generation":                   "gauge",
		"ibbe_dkg_reshare_phase_seconds":        "histogram",
		"ibbe_dkg_reshares_total":               "counter",
		"ibbe_autoscale_decisions_total":        "counter",
		"ibbe_crypto_ops_total":                 "counter",
		"ibbe_shard_groups_owned":               "gauge",
		"ibbe_core_resident_pages":              "gauge",
		"ibbe_core_page_evictions_total":        "counter",
		"ibbe_core_repartition_failures_total":  "counter",
		"ibbe_client_routes_total":              "counter",
		"ibbe_client_fenced_refreshes_total":    "counter",
		"ibbe_client_cache_hits_total":          "counter",
		"ibbe_client_cache_misses_total":        "counter",
		"ibbe_client_cache_collapsed_total":     "counter",
		"ibbe_client_cache_revalidations_total": "counter",
		"ibbe_client_cache_evictions_total":     "counter",
	}
	for name, typ := range golden {
		got, ok := families[name]
		if !ok {
			t.Errorf("family %s missing from exposition", name)
		} else if got != typ {
			t.Errorf("family %s has type %s, want %s", name, got, typ)
		}
	}

	// The traffic above must be visible, not just declared: router requests,
	// admin ops, store ops and crypto ops all counted something.
	text := string(body)
	for _, want := range []string{
		`ibbe_router_requests_total{`,
		`ibbe_admin_op_seconds_count{`,
		`ibbe_store_ops_total{backend="mem"`,
		`ibbe_crypto_ops_total{`,
		`ibbe_lease_events_total{`,
		`ibbe_client_routes_total{route="direct"}`,
		`ibbe_core_repartition_failures_total{shard="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition carries no %s series after traffic", want)
		}
	}
	// And the registry handler serves the identical registry directly.
	if _, err := obs.ValidateExposition(scrape(t, reg)); err != nil {
		t.Fatalf("registry handler exposition: %v", err)
	}
}

// scrape renders the registry through its HTTP handler.
func scrape(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	return []byte(sb.String())
}

// TestTraceIDPropagation drives one admin op through the router and
// asserts a single trace carries the whole causal chain: the router's
// route/forward spans, the shard's server span (joined via X-Trace-Id),
// the admin op span, and the store write spans under it.
func TestTraceIDPropagation(t *testing.T) {
	tc, _, tracer := obsCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
	ctx := context.Background()

	if err := tc.api.CreateGroup(ctx, "traced", groupUsers("traced", 3)); err != nil {
		t.Fatal(err)
	}
	if err := tc.api.AddUser(ctx, "traced", "traced-new@example.com"); err != nil {
		t.Fatal(err)
	}

	var addTrace *obs.TraceDump
	for _, tr := range tracer.Snapshot() {
		if tr.Name == "route /admin/add-batch" {
			addTrace = &tr
			break
		}
	}
	if addTrace == nil {
		t.Fatal("no trace recorded for route /admin/add-batch")
	}
	names := make(map[string]int)
	byID := make(map[int64]obs.Span, len(addTrace.Spans))
	for _, sp := range addTrace.Spans {
		key := sp.Name
		if i := strings.Index(key, " shard-"); i > 0 {
			key = key[:i+6] // collapse the shard id
		}
		names[key]++
		byID[sp.ID] = sp
	}
	for _, want := range []string{"route /admin/add-batch", "forward shard", "shard shard", "admin.add-batch", "store.commit"} {
		found := false
		for name := range names {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace has no %q span; spans: %v", want, spanNames(addTrace))
		}
	}
	// Parent links are intact: every non-root span's parent exists in the
	// same trace, and store spans hang below the admin op, not the root.
	for _, sp := range addTrace.Spans {
		if sp.Parent == 0 {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %q has dangling parent %d", sp.Name, sp.Parent)
		}
		if strings.HasPrefix(sp.Name, "store.") && strings.HasPrefix(parent.Name, "route ") {
			t.Fatalf("store span %q parented to the router root, not the admin op", sp.Name)
		}
	}
}

func spanNames(tr *obs.TraceDump) []string {
	out := make([]string, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		out = append(out, sp.Name)
	}
	return out
}

// TestAutoscalerGrowsOnTelemetrySignals proves the controller acts on the
// observability plane alone: zero crypto load, zero groups — only an
// injected router queue depth — must grow the cluster, and the decision
// log must record the signal that triggered it.
func TestAutoscalerGrowsOnTelemetrySignals(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc, _, _ := obsCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})

	const depth = 50
	as := NewAutoscaler(tc.c, AutoscalerConfig{
		Min:      2,
		Max:      3,
		GrowLoad: 1_000,
		Interval: 20 * time.Millisecond,
	})
	// Only telemetry: a standing router queue. With the default weight the
	// per-member signal is 20_000 × 50 / 2 = 500_000 ≫ GrowLoad.
	as.Signals.QueueDepth = func() int64 { return depth }
	as.OnMint = func(s *Shard) error {
		tc.serveShard(t, s)
		return nil
	}
	as.Start()
	defer as.Stop()

	waitUntil(t, 15*time.Second, "telemetry-driven grow to 3 members", func() bool {
		return len(tc.c.Membership().Members()) == 3
	})
	as.Stop()

	st := as.Status()
	if st.QueueDepth != depth {
		t.Fatalf("status queue depth %d, want %d", st.QueueDepth, depth)
	}
	var grow *Decision
	for i := range st.Decisions {
		if st.Decisions[i].Action == "grow" {
			grow = &st.Decisions[i]
			break
		}
	}
	if grow == nil {
		t.Fatalf("no grow decision in log: %+v", st.Decisions)
	}
	if grow.QueueDepth != depth {
		t.Fatalf("grow decision recorded queue depth %d, want %d", grow.QueueDepth, depth)
	}
	if grow.MemberLoad != 0 {
		t.Fatalf("grow decision claims member crypto load %v on an idle cluster", grow.MemberLoad)
	}
	if grow.AvgLoad <= 1_000 {
		t.Fatalf("grow decision avg load %v not above the threshold it claims to have crossed", grow.AvgLoad)
	}
	if grow.Members != 2 {
		t.Fatalf("grow decision recorded %d members, want 2", grow.Members)
	}
}

// benchmarkChurn drives add/remove churn through the full router→shard
// HTTP path; the ObsOff/ObsOn pair quantifies the observability plane's
// end-to-end cost (counters + histograms + a full trace per request).
func benchmarkChurn(b *testing.B, opts Options) {
	tc := startCluster(b, opts)
	ctx := context.Background()
	if err := tc.api.CreateGroup(ctx, "bench", groupUsers("bench", 4)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := fmt.Sprintf("bench-churn%06d@example.com", i)
		if err := tc.api.AddUser(ctx, "bench", u); err != nil {
			b.Fatal(err)
		}
		if err := tc.api.RemoveUser(ctx, "bench", u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterChurnObsOff(b *testing.B) {
	benchmarkChurn(b, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7})
}

func BenchmarkClusterChurnObsOn(b *testing.B) {
	benchmarkChurn(b, Options{
		Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7,
		Registry: obs.NewRegistry(), Tracer: obs.NewTracer(64),
	})
}
