package cluster

import (
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/obs"
)

// clusterObs bundles the metric handles the cluster's moving parts share.
// Built once per cluster from Options.Registry; a nil bundle (observability
// off) makes every recording below a no-op through the registry's nil-handle
// contract.
type clusterObs struct {
	registry *obs.Registry
	tracer   *obs.Tracer

	// leaseEvents counts lease lifecycle transitions per shard: acquire,
	// reacquire, steal, renew, expire, handoff, release.
	leaseEvents *obs.CounterVec
	// steals mirrors the "steal" lease events as a plain atomic so the
	// autoscaler can sample churn without scraping its own registry.
	steals atomic.Int64

	// opSeconds times admin ops per shard and op (create/add-batch/
	// remove-batch/rekey/extract); opErrors counts the failed ones.
	opSeconds *obs.HistogramVec
	opErrors  *obs.CounterVec

	// ecallSeconds times group-state ECALLs per shard and call name.
	ecallSeconds *obs.HistogramVec

	// dkgGeneration is the committed share generation; reshareSeconds times
	// each reshare phase (subdeal/adopt/publish/commit), bootstrap's first
	// reshare included, and resharesTotal counts completed epoch reshares.
	dkgGeneration  *obs.Gauge
	reshareSeconds *obs.HistogramVec
	resharesTotal  *obs.Counter

	// decisions counts autoscaler verdicts by action (grow/shrink).
	decisions *obs.CounterVec
}

// newClusterObs registers the cluster metric families. Nil registry → nil
// bundle.
func newClusterObs(r *obs.Registry, tracer *obs.Tracer) *clusterObs {
	if r == nil {
		return nil
	}
	return &clusterObs{
		registry:       r,
		tracer:         tracer,
		leaseEvents:    r.CounterVec("ibbe_lease_events_total", "Lease lifecycle events by shard and event (acquire/reacquire/steal/renew/expire/handoff/release).", "shard", "event"),
		opSeconds:      r.HistogramVec("ibbe_admin_op_seconds", "Admin operation latency by shard and op kind.", nil, "shard", "op"),
		opErrors:       r.CounterVec("ibbe_admin_op_errors_total", "Failed admin operations by shard and op kind.", "shard", "op"),
		ecallSeconds:   r.HistogramVec("ibbe_ecall_seconds", "Enclave ECALL latency by shard and call.", nil, "shard", "call"),
		dkgGeneration:  r.Gauge("ibbe_dkg_generation", "Committed threshold share generation."),
		reshareSeconds: r.HistogramVec("ibbe_dkg_reshare_phase_seconds", "DKG reshare phase durations.", nil, "phase"),
		resharesTotal:  r.Counter("ibbe_dkg_reshares_total", "Completed DKG epoch reshares."),
		decisions:      r.CounterVec("ibbe_autoscale_decisions_total", "Autoscaler decisions by action.", "action"),
	}
}

// leaseEvent records one lease lifecycle event for a shard.
func (co *clusterObs) leaseEvent(shard, event string) {
	if co == nil {
		return
	}
	co.leaseEvents.With(shard, event).Inc()
	if event == "steal" {
		co.steals.Add(1)
	}
}

// adminOp records one admin op that started at t0, and its failure.
func (co *clusterObs) adminOp(shard, op string, t0 time.Time, err error) {
	if co == nil {
		return
	}
	co.opSeconds.With(shard, op).ObserveSince(t0)
	if err != nil {
		co.opErrors.With(shard, op).Inc()
	}
}

// LeaseSteals returns the total lease steals observed (autoscaler churn
// signal).
func (co *clusterObs) LeaseSteals() int64 {
	if co == nil {
		return 0
	}
	return co.steals.Load()
}

// obsTracer returns the bundle's tracer (nil-safe).
func (co *clusterObs) obsTracer() *obs.Tracer {
	if co == nil {
		return nil
	}
	return co.tracer
}

// obsRegistry returns the bundle's registry (nil-safe).
func (co *clusterObs) obsRegistry() *obs.Registry {
	if co == nil {
		return nil
	}
	return co.registry
}
