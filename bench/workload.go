package main

import (
	"fmt"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// spec describes one workload. Names are final: later issues refer to them.
type spec struct {
	Name string
	Why  string
	// Routed runs a 2-shard cluster behind loopback HTTP servers driven by a
	// direct-to-shard ClusterClient; otherwise one CAS-mode admin is called
	// directly.
	Routed bool
	// Latency is the injected store delay, stated in the output.
	Latency storage.Latency
	Groups  int
	// Members is the nominal group size: a whole number of partitions. A
	// group is created Slack members short of it (half a partition, set by
	// scale.sized), so that the stream's random walk in group size neither
	// opens nor empties a partition: the partition count, and with it the
	// cost of a removal, is the same for every seed.
	Members int
	Slack   int
	// Pinned is the number of never-removed members per group the reader
	// picks from, spread over all partitions.
	Pinned int
	// MaxResident bounds each group's page cache (0 = every page resident).
	MaxResident int
	// Think is the admin driver's pause between ops.
	Think time.Duration
	// ReadRate is the member reader's open-loop rate in reads/s.
	ReadRate float64
}

// cloudLatency is the store delay the repo's existing figures already
// inject (internal/benchmark): 5 ms per mutation, 2 ms per read.
var cloudLatency = storage.Latency{Put: 5 * time.Millisecond, Get: 2 * time.Millisecond}

var workloads = []spec{
	{
		Name:    "cloud_routed",
		Why:     "The deployed write path end to end (route, shard gate, admin, core, ECALL, serial cloud PUTs): store round trips dominate, so a round-trip-cutting change must show here.",
		Routed:  true,
		Latency: cloudLatency,
		Groups:  16, Members: 2048, Pinned: 4,
		ReadRate: 10,
	},
	{
		Name:   "local_compute",
		Why:    "The same op stream with routing and store wait removed: core, enclave, pairing crypto and serialization do all the work, so a compute change shows here and a round-trip change does not.",
		Groups: 16, Members: 2048, Pinned: 4,
		ReadRate: 10,
	},
	{
		Name:   "big_group_paged",
		Why:    "The only workload larger than the program's own page cache (128 partitions per group, 16 resident): eviction, rehydration, index marshalling and the all-partition sweep dominate.",
		Groups: 2, Members: 32768, Pinned: 8,
		MaxResident: 16,
		ReadRate:    10,
	},
	{
		Name:    "read_fanout",
		Why:     "The member side does most of the CPU work (shared record cache, cold directory scans, IBBE decrypt) while the admin is paced, so a write-side gain that costs readers shows here.",
		Routed:  true,
		Latency: cloudLatency,
		Groups:  4, Members: 2048, Pinned: 32,
		Think:    40 * time.Millisecond,
		ReadRate: 20,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scale fixes everything that is not part of a workload's shape: the pairing
// parameters, the partition capacity and how much work the fixed-size phases
// do. Users run paperScale; bench_test.go runs testScale so that tier-1
// stays fast. It is deliberately not a flag.
type scale struct {
	Params     *pairing.Params
	ParamsName string
	Capacity   int
	// Shrink divides group sizes. Delays keeps the workloads' injected store
	// delays and think time; without them a test run never sleeps.
	Shrink int
	Delays bool
	// Setups is how many times a run builds the system; setup_s is their
	// median.
	Setups int
	// WarmupOps are executed and discarded before the measured stream.
	WarmupOps int
	// RestoreEvery is how many admin ops of the stream lie between two
	// standby restores.
	RestoreEvery int
	// ProbeCalls / ProbeBudget bound one probe: it stops after ProbeCalls
	// calls or ProbeBudget of wall time, whichever comes first.
	ProbeCalls  int
	ProbeBudget time.Duration
	// ObsReplayOps is the length of the obs-overhead replay.
	ObsReplayOps int
}

// canariesPerGroup users per group are provisioned with keys and are the
// first removal victims of their group; afterwards they must be evicted.
const canariesPerGroup = 8

func paperScale() scale {
	return scale{
		// paper-512 is the only parameter set with a security margin, so
		// the only one users deploy.
		Params: pairing.TypeA512(), ParamsName: "type-a-512",
		Capacity: 256, Shrink: 1, Delays: true,
		Setups: 3, WarmupOps: 20,
		RestoreEvery: 2,
		ProbeCalls:   200, ProbeBudget: 400 * time.Millisecond,
		ObsReplayOps: 500,
	}
}

func testScale() scale {
	return scale{
		Params: pairing.TypeA160(), ParamsName: "type-a-160",
		Capacity: 16, Shrink: 16,
		Setups: 1, WarmupOps: 4, RestoreEvery: 4,
		ProbeCalls: 3, ProbeBudget: 10 * time.Millisecond,
		ObsReplayOps: 24,
	}
}

// sized applies the scale to a workload.
func (sc scale) sized(w spec) spec {
	w.Members /= sc.Shrink
	w.Slack = sc.Capacity / 2
	if !sc.Delays {
		w.Latency, w.Think = storage.Latency{}, 0
	}
	return w
}
