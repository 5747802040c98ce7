// Autoscaler: the policy half of the elastic membership layer. PR 3 built
// the mechanism (epoch-fenced AddShard/drain); this controller watches
// per-shard load — groups owned × weighted primitive-op rate from the
// crypto metrics hooks — and drives grow/drain decisions through the
// persisted-membership path, so every change it makes is durable in the
// store and discovered by shards and routers exactly like an operator's.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Autoscaler settings. GrowLoad and Interval are per config; the rest
// derive from them or are fixed.
const (
	// DefaultGrowLoad is the per-member average load (groups × weighted
	// ops/s) above which the cluster grows. The weighted unit is
	// ibbe.Metrics.Total: one pairing ≈ 3000, one exponentiation ≈ 1000.
	DefaultGrowLoad = 200_000
	// DefaultAutoscaleInterval is the control-loop period.
	DefaultAutoscaleInterval = 2 * time.Second
	// DefaultCooldownTicks spaces consecutive scaling actions, in units of
	// the interval: a change must prove itself before the next one fires.
	DefaultCooldownTicks = 3
	// DefaultQueueWeight converts one queued router request into load units:
	// a standing queue means the members cannot keep up regardless of what
	// the crypto counters say (e.g. requests stuck behind lease waits).
	DefaultQueueWeight = 20_000
	// DefaultStealWeight converts one lease steal per second into load
	// units. Steal churn means groups are bouncing between owners — each
	// bounce costs a full adopt + heal-rotate — so sustained churn argues
	// for more members even at modest crypto rates.
	DefaultStealWeight = 50_000
	// decisionLogCap bounds the in-memory decision log.
	decisionLogCap = 64
)

// AutoscalerConfig bounds and tunes the controller. The drain threshold is
// GrowLoad/8, and scaling actions are DefaultCooldownTicks intervals apart.
type AutoscalerConfig struct {
	// Min / Max bound the member count (defaults: 1 / 8).
	Min, Max int
	// GrowLoad is the per-member average load above which the cluster
	// grows (default DefaultGrowLoad); its unit scales with the pairing
	// parameters.
	GrowLoad float64
	// Interval is the sampling/decision period (default 2s).
	Interval time.Duration
}

// withDefaults fills the zero fields.
func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max < c.Min {
		if c.Max == 0 {
			c.Max = 8
		} else {
			c.Max = c.Min
		}
	}
	if c.GrowLoad <= 0 {
		c.GrowLoad = DefaultGrowLoad
	}
	if c.Interval <= 0 {
		c.Interval = DefaultAutoscaleInterval
	}
	return c
}

// shrinkLoad is the per-member average load below which the cluster drains
// its least-loaded member: well under GrowLoad, so the controller cannot
// oscillate on a flat workload.
func (c AutoscalerConfig) shrinkLoad() float64 { return c.GrowLoad / 8 }

// Signals are the telemetry feeds folded into the load average alongside
// the per-shard crypto rates. Both are optional; a nil func reads as zero.
// They are sampled once per tick, outside the controller's lock.
type Signals struct {
	// QueueDepth returns the router's current in-flight request count
	// (Router.QueueDepth). A standing queue grows the cluster even when
	// the crypto counters look calm.
	QueueDepth func() int64
	// LeaseSteals returns the cumulative cluster-wide lease-steal count
	// (clusterObs.LeaseSteals); the controller differentiates it into a
	// steals/s churn rate.
	LeaseSteals func() int64
}

// Decision is one entry of the autoscaler's decision log: what it did and
// the exact signal values that triggered it.
type Decision struct {
	At     time.Time `json:"at"`
	Action string    `json:"action"` // grow | shrink | grow_failed | shrink_failed
	Detail string    `json:"detail"`
	// AvgLoad is the combined per-member signal compared against the
	// thresholds: (member crypto load + queue and steal terms) / members.
	AvgLoad float64 `json:"avg_load"`
	// MemberLoad is the summed groups × op-rate load across members.
	MemberLoad float64 `json:"member_load"`
	// QueueDepth and StealRate are the raw telemetry samples behind the
	// weighted terms.
	QueueDepth int64   `json:"queue_depth"`
	StealRate  float64 `json:"steal_rate"`
	Members    int     `json:"members"`
	Epoch      uint64  `json:"epoch"`
}

// ShardLoad is one shard's sampled load.
type ShardLoad struct {
	ID     string `json:"id"`
	Member bool   `json:"member"`
	// Groups is the number of group leases the shard holds.
	Groups int `json:"groups"`
	// OpRate is the weighted primitive-operation rate (ibbe.Metrics.Total
	// units per second) since the previous sample.
	OpRate float64 `json:"op_rate"`
	// Load is Groups × OpRate — the controller's scaling signal.
	Load float64 `json:"load"`
}

// AutoscalerStatus is the observable state served by the control endpoint.
type AutoscalerStatus struct {
	Running      bool          `json:"running"`
	Min          int           `json:"min"`
	Max          int           `json:"max"`
	GrowLoad     float64       `json:"grow_load"`
	ShrinkLoad   float64       `json:"shrink_load"`
	Interval     time.Duration `json:"interval_ns"`
	Epoch        uint64        `json:"epoch"`
	Members      []string      `json:"members"`
	Loads        []ShardLoad   `json:"loads,omitempty"`
	QueueDepth   int64         `json:"queue_depth"`
	StealRate    float64       `json:"steal_rate"`
	LastAction   string        `json:"last_action,omitempty"`
	LastActionAt time.Time     `json:"last_action_at,omitempty"`
	// Decisions is the scaling decision log, most recent first.
	Decisions []Decision `json:"decisions,omitempty"`
}

// Autoscaler drives a Cluster's member count from its measured load. All
// changes flow through Admit/RemoveShard, i.e. the persisted-membership
// path: each is CAS-published to the store before it takes effect, fenced
// by its epoch, and discovered by every shard and router watch loop.
type Autoscaler struct {
	// OnMint, when set, is invoked with each newly minted shard BEFORE it
	// is admitted to the membership — the gateway's hook to put the shard
	// behind a listener so routing can reach it the moment the epoch bumps.
	OnMint func(*Shard) error
	// Signals feeds the telemetry terms; set before Start. LeaseSteals
	// defaults to the cluster's own lease-event counter; QueueDepth is
	// wired by whoever owns the router (the gateway or a test).
	Signals Signals

	c   *Cluster
	cfg AutoscalerConfig

	mu           sync.Mutex
	running      bool
	prev         map[string]int64
	prevSteals   int64
	prevAt       time.Time
	loads        []ShardLoad
	queueDepth   int64
	stealRate    float64
	lastAction   string
	lastActionAt time.Time
	decisions    []Decision // ring, most recent first, ≤ decisionLogCap
	stopc        chan struct{}
	done         chan struct{}
}

// NewAutoscaler builds a controller over the cluster (not started). The
// lease-steal signal defaults to the cluster's own telemetry when the
// cluster was built with an obs registry.
func NewAutoscaler(c *Cluster, cfg AutoscalerConfig) *Autoscaler {
	a := &Autoscaler{c: c, cfg: cfg.withDefaults(), prev: make(map[string]int64)}
	if c != nil && c.co != nil {
		a.Signals.LeaseSteals = c.co.LeaseSteals
	}
	return a
}

// Config returns the effective (defaulted) configuration.
func (a *Autoscaler) Config() AutoscalerConfig { return a.cfg }

// Start launches the control loop; restartable after Stop.
func (a *Autoscaler) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return
	}
	a.running = true
	// Re-baseline the rate samples: counters kept growing while the
	// controller was off, and a stale baseline would read as a huge burst.
	a.prev = make(map[string]int64)
	a.prevSteals = 0
	a.prevAt = time.Time{}
	a.stopc = make(chan struct{})
	a.done = make(chan struct{})
	go a.run(a.stopc, a.done)
}

// Stop halts the control loop and waits for it; no-op when not running.
func (a *Autoscaler) Stop() {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return
	}
	a.running = false
	stopc, done := a.stopc, a.done
	a.mu.Unlock()
	close(stopc)
	<-done
}

// Status snapshots the controller for the control endpoint.
func (a *Autoscaler) Status() AutoscalerStatus {
	m := a.c.Membership()
	a.mu.Lock()
	defer a.mu.Unlock()
	return AutoscalerStatus{
		Running:      a.running,
		Min:          a.cfg.Min,
		Max:          a.cfg.Max,
		GrowLoad:     a.cfg.GrowLoad,
		ShrinkLoad:   a.cfg.shrinkLoad(),
		Interval:     a.cfg.Interval,
		Epoch:        m.Epoch,
		Members:      m.Members(),
		Loads:        append([]ShardLoad(nil), a.loads...),
		QueueDepth:   a.queueDepth,
		StealRate:    a.stealRate,
		LastAction:   a.lastAction,
		LastActionAt: a.lastActionAt,
		Decisions:    append([]Decision(nil), a.decisions...),
	}
}

func (a *Autoscaler) run(stopc, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stopc:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			a.tick(ctx)
			cancel()
		}
	}
}

// signalSample freezes one tick's combined telemetry for the decision log.
type signalSample struct {
	avg        float64
	memberLoad float64
	queueDepth int64
	stealRate  float64
	members    int
	epoch      uint64
}

// tick samples every shard's load plus the router/lease telemetry signals
// and applies at most one scaling action.
func (a *Autoscaler) tick(ctx context.Context) {
	m := a.c.Membership()
	shards := a.c.Shards()
	now := time.Now()

	// Telemetry feeds are sampled outside the controller lock: they may
	// take locks of their own (the router's health cache, the registry).
	var queueDepth, steals int64
	if a.Signals.QueueDepth != nil {
		queueDepth = a.Signals.QueueDepth()
	}
	if a.Signals.LeaseSteals != nil {
		steals = a.Signals.LeaseSteals()
	}

	a.mu.Lock()
	dt := now.Sub(a.prevAt).Seconds()
	first := a.prevAt.IsZero()
	a.prevAt = now
	loads := make([]ShardLoad, 0, len(shards))
	var memberLoad float64
	for _, s := range shards {
		total := s.MetricsTotal()
		prev, seen := a.prev[s.ID]
		a.prev[s.ID] = total
		l := ShardLoad{ID: s.ID, Member: m.Has(s.ID), Groups: len(s.OwnedGroups())}
		// The first sample of a shard (or of the controller) has no
		// baseline: report zero rather than the counter's whole history.
		if seen && !first && dt > 0 {
			l.OpRate = float64(total-prev) / dt
			l.Load = float64(l.Groups) * l.OpRate
		}
		if l.Member {
			memberLoad += l.Load
		}
		loads = append(loads, l)
	}
	var stealRate float64
	if !first && dt > 0 && steals > a.prevSteals {
		stealRate = float64(steals-a.prevSteals) / dt
	}
	a.prevSteals = steals
	a.loads = loads
	a.queueDepth = queueDepth
	a.stealRate = stealRate
	cooled := a.lastActionAt.IsZero() || now.Sub(a.lastActionAt) >= DefaultCooldownTicks*a.cfg.Interval
	a.mu.Unlock()

	members := m.Members()
	if first || !cooled || len(members) == 0 {
		return
	}
	// The combined signal: crypto load plus the weighted telemetry terms,
	// averaged over the members that must absorb it.
	avg := (memberLoad +
		DefaultQueueWeight*float64(queueDepth) +
		DefaultStealWeight*stealRate) / float64(len(members))
	sig := signalSample{
		avg:        avg,
		memberLoad: memberLoad,
		queueDepth: queueDepth,
		stealRate:  stealRate,
		members:    len(members),
		epoch:      m.Epoch,
	}
	switch {
	case avg > a.cfg.GrowLoad && len(members) < a.cfg.Max:
		a.grow(ctx, sig)
	case avg < a.cfg.shrinkLoad() && len(members) > a.cfg.Min:
		a.shrink(ctx, sig, loads, m)
	}
}

// grow admits one more member: a previously drained (but still live) shard
// is re-admitted before a brand-new one is minted, so shrink/grow cycles
// do not accumulate enclaves.
func (a *Autoscaler) grow(ctx context.Context, sig signalSample) {
	m := a.c.Membership()
	var s *Shard
	for _, cand := range a.c.Shards() {
		if !m.Has(cand.ID) && !cand.Stopped() {
			s = cand
			break
		}
	}
	if s == nil {
		minted, err := a.c.AddShard()
		if err != nil {
			a.decide("grow_failed", fmt.Sprintf("grow failed (mint): %v", err), sig)
			return
		}
		if a.OnMint != nil {
			if err := a.OnMint(minted); err != nil {
				a.decide("grow_failed", fmt.Sprintf("grow failed (serve %s): %v", minted.ID, err), sig)
				return
			}
		}
		s = minted
	}
	next, err := a.c.Admit(ctx, s.ID)
	if next == nil {
		a.decide("grow_failed", fmt.Sprintf("grow failed (admit %s): %v", s.ID, err), sig)
		return
	}
	// A non-nil next WITH an error means the change is in effect but a
	// hand-off step failed (heals through lease TTL); an operator reading
	// the status must see that, not a clean success.
	sig.epoch = next.Epoch
	a.decide("grow", withWarning(fmt.Sprintf("grew to %d members (admitted %s at epoch %d; avg load %.0f > %.0f)",
		len(next.Members()), s.ID, next.Epoch, sig.avg, a.cfg.GrowLoad), err), sig)
}

// shrink drains the least-loaded member (ties resolve to the highest ID,
// so the founding shards are drained last).
func (a *Autoscaler) shrink(ctx context.Context, sig signalSample, loads []ShardLoad, m *Membership) {
	byID := make(map[string]ShardLoad, len(loads))
	for _, l := range loads {
		byID[l.ID] = l
	}
	members := m.Members()
	sort.SliceStable(members, func(i, j int) bool {
		li, lj := byID[members[i]], byID[members[j]]
		if li.Load != lj.Load {
			return li.Load < lj.Load
		}
		return members[i] > members[j]
	})
	victim := members[0]
	next, err := a.c.RemoveShard(ctx, victim)
	if next == nil {
		a.decide("shrink_failed", fmt.Sprintf("shrink failed (drain %s): %v", victim, err), sig)
		return
	}
	sig.epoch = next.Epoch
	a.decide("shrink", withWarning(fmt.Sprintf("shrank to %d members (drained %s at epoch %d; avg load %.0f < %.0f)",
		len(next.Members()), victim, next.Epoch, sig.avg, a.cfg.shrinkLoad()), err), sig)
}

// withWarning appends a partial-failure warning (failed hand-off step
// behind an applied change) to an action description.
func withWarning(action string, err error) string {
	if err == nil {
		return action
	}
	return action + "; WARNING hand-off step failed, heals via lease TTL: " + err.Error()
}

// decide records a scaling decision: the status fields, the bounded
// decision log (most recent first), and the decision counter metric.
func (a *Autoscaler) decide(action, detail string, sig signalSample) {
	d := Decision{
		At:         time.Now(),
		Action:     action,
		Detail:     detail,
		AvgLoad:    sig.avg,
		MemberLoad: sig.memberLoad,
		QueueDepth: sig.queueDepth,
		StealRate:  sig.stealRate,
		Members:    sig.members,
		Epoch:      sig.epoch,
	}
	a.mu.Lock()
	a.lastAction = detail
	a.lastActionAt = d.At
	a.decisions = append([]Decision{d}, a.decisions...)
	if len(a.decisions) > decisionLogCap {
		a.decisions = a.decisions[:decisionLogCap]
	}
	a.mu.Unlock()
	if a.c != nil && a.c.co != nil {
		a.c.co.decisions.With(action).Inc()
	}
}
