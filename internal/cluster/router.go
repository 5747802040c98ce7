package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// ServedByHeader names the shard that actually served a routed request —
// the router stamps it on every relayed response so operators (and the
// failover counter) can see exactly which candidate answered, instead of
// inferring it from the health cache's side effects.
const ServedByHeader = "X-Served-By"

// Router is the cluster gateway: it exposes the exact HTTP surface of a
// single shard and forwards each request to the shard owning the
// requested group, sweeping its routing view (membership.View.Sweep) in
// ring order — failing over when the owner is unreachable or answers 503,
// refreshing from the store on a fenced answer. client.AdminAPI pointed at
// a Router drives the whole cluster transparently.
type Router struct {
	// Client is the forwarding HTTP client (http.DefaultClient if nil).
	Client *http.Client
	// RouteTimeout bounds one request's failover chase — it must cover a
	// lease TTL, the window during which a dead shard's groups are stuck.
	RouteTimeout time.Duration
	// RetryInterval separates failover sweeps over the candidates.
	RetryInterval time.Duration
	// HealthTTL is how long an unreachable shard is skipped without a new
	// probe (0 selects membership.DefaultHealthTTL; negative disables the
	// cache).
	HealthTTL time.Duration

	view *membership.View

	// inflight counts requests currently inside ServeHTTP — the router's
	// queue depth, an autoscaler signal and the ibbe_router_inflight gauge.
	inflight atomic.Int64
	// rm holds the metric handles installed by Instrument (nil = no-op).
	rm     *routerMetrics
	tracer *obs.Tracer
}

// routerMetrics are the router's registry handles.
type routerMetrics struct {
	requests      *obs.CounterVec   // by path
	seconds       *obs.HistogramVec // by path
	served        *obs.CounterVec   // by shard
	failovers     *obs.CounterVec   // by serving (non-preferred) shard
	fencedRefresh *obs.Counter
}

// Instrument attaches the router to an observability registry and tracer
// (either may be nil). Metric families are registered immediately so an
// idle router still exposes them. Call it before the router serves: it
// sets the view's OnSkip hook.
func (rt *Router) Instrument(r *obs.Registry, tracer *obs.Tracer) {
	rt.tracer = tracer
	if r == nil {
		return
	}
	rt.rm = &routerMetrics{
		requests:      r.CounterVec("ibbe_router_requests_total", "Requests routed, by path.", "path"),
		seconds:       r.HistogramVec("ibbe_router_request_seconds", "End-to-end routed request latency, by path.", nil, "path"),
		served:        r.CounterVec("ibbe_router_served_total", "Requests served, by the shard that answered.", "shard"),
		failovers:     r.CounterVec("ibbe_router_failovers_total", "Requests served by a shard other than the preferred ring owner, by serving shard.", "shard"),
		fencedRefresh: r.Counter("ibbe_router_fenced_refreshes_total", "Membership refreshes triggered by fenced shard responses."),
	}
	healthSkips := r.CounterVec("ibbe_router_health_skips_total", "Candidates skipped by the cached down verdict, by shard.", "shard")
	rt.view.OnSkip = func(id string) { healthSkips.With(id).Inc() }
	r.GaugeFunc("ibbe_router_inflight", "Requests currently being routed (queue depth).", func() float64 {
		return float64(rt.inflight.Load())
	})
}

// QueueDepth returns the number of requests currently inside the router —
// the autoscaler's queue-pressure signal.
func (rt *Router) QueueDepth() int64 { return rt.inflight.Load() }

// NewRouter builds a static gateway over the membership: it never follows
// the store. targets must provide a base URL for every member.
func NewRouter(m *Membership, targets map[string]string) (*Router, error) {
	if err := requireTargets(m, targets); err != nil {
		return nil, err
	}
	v := membership.NewView(nil)
	v.Adopt(m, targets)
	return newRouter(v), nil
}

// NewRouter builds the gateway over the cluster's own view, so routing
// moves with every membership change the cluster applies or discovers,
// before any shard drains, and a fenced answer refreshes that one view. The
// URLs of the Targets hook are merged into the view first: set Targets and
// serve every shard before calling it. Call Instrument before serving.
func (c *Cluster) NewRouter() (*Router, error) {
	targets := c.targets()
	for {
		m := c.view.Membership()
		c.view.Adopt(m, targets) // the current epoch: merges the URLs only
		if c.view.Membership() == m {
			break
		}
	}
	if err := requireTargets(c.view.Snapshot()); err != nil {
		return nil, err
	}
	return newRouter(c.view), nil
}

func newRouter(v *membership.View) *Router {
	return &Router{
		view:          v,
		RouteTimeout:  membership.DefaultRouteTimeout,
		RetryInterval: membership.DefaultRetryInterval,
	}
}

// requireTargets checks that every member has a URL.
func requireTargets(m *Membership, targets map[string]string) error {
	for _, id := range m.Members() {
		if targets[id] == "" {
			return fmt.Errorf("cluster: router has no target URL for %s", id)
		}
	}
	return nil
}

// Membership returns the membership the router currently routes by.
func (rt *Router) Membership() *Membership { return rt.view.Membership() }

func (rt *Router) httpClient() *http.Client {
	if rt.Client != nil {
		return rt.Client
	}
	return http.DefaultClient
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	group := ""
	if strings.HasPrefix(r.URL.Path, "/admin/") {
		// Reads carry the group in the query string, mutations in the body;
		// either way the group pins the candidate order to its ring owners.
		group = r.URL.Query().Get("group")
		if group == "" {
			var req struct {
				Group string `json:"group"`
			}
			if err := json.Unmarshal(body, &req); err != nil || req.Group == "" {
				http.Error(w, "cluster: missing group", http.StatusBadRequest)
				return
			}
			group = req.Group
		}
	}

	if rt.rm != nil {
		t0 := time.Now()
		rt.rm.requests.With(r.URL.Path).Inc()
		defer rt.rm.seconds.With(r.URL.Path).ObserveSince(t0)
	}
	trace, root := rt.tracer.StartTrace("route " + r.URL.Path)
	var routeErr error
	defer func() { root.End(routeErr) }()

	ctx := obs.ContextWithTrace(r.Context(), trace, root)
	pace := membership.Pace{RouteTimeout: rt.RouteTimeout, RetryInterval: rt.RetryInterval, HealthTTL: rt.HealthTTL}
	routeErr = rt.view.Sweep(ctx, group, pace, func(ctx context.Context, c membership.Candidate) (membership.Verdict, error) {
		resp, err := rt.forward(ctx, r, c.ID, c.URL, body)
		if err != nil {
			return membership.Unreachable, fmt.Errorf("%s: %w", c.ID, err)
		}
		fenced := resp.StatusCode == http.StatusPreconditionFailed && resp.Header.Get(storage.FencedHeader) != ""
		if resp.StatusCode == http.StatusServiceUnavailable || fenced {
			// Not the owner (yet), or a write fenced by a newer membership:
			// drain and let the sweep move on (or refresh and re-route)
			// instead of surfacing the answer to the client.
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			err := fmt.Errorf("%s: %s", c.ID, strings.TrimSpace(string(msg)))
			if !fenced {
				return membership.NotOwner, err
			}
			if rt.rm != nil {
				rt.rm.fencedRefresh.Inc()
			}
			return membership.Fenced, err
		}
		// Record WHO answered, so the health cache and the failover counter
		// tell the same story: a request served by anyone but the preferred
		// ring owner is a failover, whether the owner failed a probe just
		// now or was silently skipped by the TTL cache.
		if rt.rm != nil {
			rt.rm.served.With(c.ID).Inc()
			if !c.Preferred {
				rt.rm.failovers.With(c.ID).Inc()
			}
		}
		w.Header().Set(ServedByHeader, c.ID)
		defer resp.Body.Close()
		copyResponse(w, resp)
		return membership.Served, nil
	})
	if routeErr != nil {
		http.Error(w, "cluster: "+routeErr.Error(), http.StatusServiceUnavailable)
	}
}

// forward replays the request against one shard, propagating the trace ID
// so the shard's spans land in the same trace.
func (rt *Router) forward(ctx context.Context, r *http.Request, id, baseURL string, body []byte) (*http.Response, error) {
	ctx, sp := obs.StartSpan(ctx, "forward "+id)
	u := strings.TrimRight(baseURL, "/") + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		sp.End(err)
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if tid := obs.TraceID(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := rt.httpClient().Do(req)
	sp.End(err)
	return resp, err
}

// copyResponse relays a shard response to the gateway client.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
