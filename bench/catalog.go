package main

// metricDef is one row of the benchmark's metric catalog. The catalog is the
// program's source of truth for names, units and regression bounds;
// BENCHMARK.json repeats it for the driver and bench_test.go keeps the two
// identical.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	// Bound is the relative worsening that counts as a regression. Only
	// end-to-end metrics carry one.
	Bound float64
	// Exact marks an admin-side count that repeats exactly for one seed and
	// op count; -compare requires equality instead of a relative bound.
	Exact bool
}

// endToEnd lists what a user of the system sees. Every workload reports all
// of them from the untraced run. The bounds are sized to the reference box,
// not to the metrics: its CPU speed wanders by ±15 % from one fraction of a
// second to the next and by more over minutes, so over ten seeds the
// quartiles of a CPU-bound median lie up to 10 % of the median apart (18 % for
// the sub-millisecond restore), and a bound has to stay clear of that spread.
// README.md has the numbers.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "add_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "remove_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "admin_ops_per_s", Unit: "ops/s", Higher: true, Bound: 0.25},
	{Name: "restore_p50_ms", Unit: "ms", Bound: 0.25},
	{Name: "store_bytes_per_member", Unit: "B", Bound: 0.02},
}

// perLayer lists the single-layer metrics of the traced run: B metrics come
// from the bench's boundary spans and counters around the workload, P
// metrics from direct probes of exported functions after it.
var perLayer = []metricDef{
	// client (routing)
	{Name: "client.route_self_add_p50_ms", Unit: "ms"},
	{Name: "client.route_self_remove_p50_ms", Unit: "ms"},
	{Name: "client.route_proxied", Unit: "count", Exact: true},
	{Name: "client.route_fenced_refreshes", Unit: "count", Exact: true},
	// cluster
	{Name: "cluster.shard_self_add_p50_ms", Unit: "ms"},
	{Name: "cluster.shard_self_remove_p50_ms", Unit: "ms"},
	{Name: "cluster.gate_overhead_us", Unit: "us"},
	{Name: "cluster.router_forward_overhead_us", Unit: "us"},
	{Name: "membership.ring_owner_ns", Unit: "ns"},
	// admin
	{Name: "admin.store_wait_add_p50_ms", Unit: "ms"},
	{Name: "admin.store_wait_remove_p50_ms", Unit: "ms"},
	{Name: "admin.store_calls_add", Unit: "count", Exact: true},
	{Name: "admin.store_calls_remove", Unit: "count", Exact: true},
	{Name: "admin.put_bytes_add", Unit: "B", Exact: true},
	{Name: "admin.put_bytes_remove", Unit: "B", Exact: true},
	{Name: "admin.compute_add_p50_ms", Unit: "ms"},
	{Name: "admin.compute_remove_p50_ms", Unit: "ms"},
	{Name: "admin.restore_store_calls", Unit: "count", Exact: true},
	{Name: "admin.restore_bytes", Unit: "B", Exact: true},
	// core
	{Name: "core.add_user_us", Unit: "us"},
	{Name: "core.remove_user_ms", Unit: "ms"},
	{Name: "core.record_marshal_us", Unit: "us"},
	{Name: "core.record_unmarshal_us", Unit: "us"},
	{Name: "core.index_marshal_us", Unit: "us"},
	{Name: "core.oplog_append_us", Unit: "us"},
	{Name: "core.resident_pages_peak", Unit: "count"},
	{Name: "core.page_evictions_per_op", Unit: "count", Exact: true},
	// partition
	{Name: "partition.index_bind_ns", Unit: "ns"},
	{Name: "partition.index_unmarshal_us", Unit: "us"},
	{Name: "partition.pages_get_hit_ns", Unit: "ns"},
	{Name: "partition.page_miss_share", Unit: "share"},
	// enclave
	{Name: "enclave.ecall_add_us", Unit: "us"},
	{Name: "enclave.ecall_rekey_partition_us", Unit: "us"},
	{Name: "enclave.ecall_remove_us", Unit: "us"},
	{Name: "enclave.ecall_new_group_key_us", Unit: "us"},
	{Name: "enclave.seal_us", Unit: "us"},
	{Name: "enclave.unseal_us", Unit: "us"},
	{Name: "enclave.extract_user_key_ms", Unit: "ms"},
	// ibbe
	{Name: "ibbe.encrypt_msk_us", Unit: "us"},
	{Name: "ibbe.add_user_us", Unit: "us"},
	{Name: "ibbe.remove_users_us", Unit: "us"},
	{Name: "ibbe.rekey_us", Unit: "us"},
	{Name: "ibbe.decrypt_ms", Unit: "ms"},
	{Name: "ibbe.extract_us", Unit: "us"},
	{Name: "ibbe.hash_id_ns", Unit: "ns"},
	{Name: "ibbe.g1_exp_per_decrypt", Unit: "count", Exact: true},
	{Name: "ibbe.pairings_per_decrypt", Unit: "count", Exact: true},
	{Name: "ibbe.zr_mul_per_decrypt", Unit: "count", Exact: true},
	// pairing / curve
	{Name: "pairing.pair_us", Unit: "us"},
	{Name: "pairing.gt_exp_us", Unit: "us"},
	{Name: "curve.g1_scalar_mult_us", Unit: "us"},
	// storage
	{Name: "storage.puts_per_op", Unit: "count", Exact: true},
	{Name: "storage.put_bytes_per_op", Unit: "B", Exact: true},
	{Name: "storage.objects_total", Unit: "count", Exact: true},
	{Name: "storage.gets_per_op", Unit: "count"},
	{Name: "storage.mem_put_fenced_us", Unit: "us"},
	{Name: "storage.mem_get_versioned_us", Unit: "us"},
	{Name: "storage.http_put_fenced_us", Unit: "us"},
	{Name: "storage.http_get_not_modified_us", Unit: "us"},
	{Name: "storage.poll_wake_us", Unit: "us"},
	// client (member)
	{Name: "client.cache_hit_share", Unit: "share", Higher: true},
	{Name: "client.cache_get_hit_ns", Unit: "ns"},
	{Name: "client.store_gets_per_fetch", Unit: "count"},
	{Name: "client.store_gets_per_cold", Unit: "count"},
	{Name: "client.watch_wakes_per_rotation", Unit: "count"},
	{Name: "client.key_fetch_p95_ms", Unit: "ms"},
	{Name: "client.key_cold_p95_ms", Unit: "ms"},
	{Name: "client.rekey_visible_p95_ms", Unit: "ms"},
	// obs
	{Name: "obs.overhead_share", Unit: "share"},
	// harness / process
	{Name: "bench.trace_overhead_share", Unit: "share"},
	{Name: "bench.reader_late_p95_ms", Unit: "ms"},
	{Name: "bench.box_speed", Unit: "share", Higher: true},
	{Name: "proc.heap_peak_mb", Unit: "MB"},
	{Name: "proc.alloc_mb_per_kop", Unit: "MB/kop"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms"},
	// Demoted end-to-end metrics: printed, not gated. The p95s have fewer than
	// ten samples beyond them on the paced workload within one run; the
	// member-side medians are one IBBE decrypt plus a few store reads, and
	// over ten seeds their quartiles lay up to 23 % of the median apart.
	{Name: "e2e.add_p95_ms", Unit: "ms"},
	{Name: "e2e.remove_p95_ms", Unit: "ms"},
	{Name: "e2e.key_fetch_p50_ms", Unit: "ms"},
	{Name: "e2e.key_cold_p50_ms", Unit: "ms"},
	{Name: "e2e.rekey_visible_p50_ms", Unit: "ms"},
	// Expected 0, so it cannot be a gated end-to-end metric; the run's
	// attempted/failed counts and exit code gate it instead.
	{Name: "e2e.failed_ops_share", Unit: "share"},
}

func lookupDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
