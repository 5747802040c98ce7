package ibbesgx_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VI), each delegating to the shared runner in internal/benchmark that
// cmd/ibbe-bench also uses, plus ablation benchmarks for two design choices
// (the C3 augmentation and the re-partitioning heuristic). Benchmarks run on
// reduced grids so `go test -bench=.` finishes in minutes; cmd/ibbe-bench
// -scale=paper runs the full grid (README's Benchmarks section).

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/benchmark"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// benchConfig is the grid used by the root benchmarks: the CI grid with the
// replay workloads shrunk so a full -bench=. pass stays fast.
func benchConfig() benchmark.Config {
	cfg := benchmark.CIScale()
	cfg.GroupSizes = []int{16, 32, 64}
	cfg.PartitionSizes = []int{8, 16, 32}
	cfg.Capacity = 16
	cfg.AddSamples = 32
	cfg.ExtractSamples = 16
	cfg.KernelOps = 400
	cfg.KernelPeak = 40
	cfg.Fig9Partitions = []int{8, 24}
	cfg.SyntheticOps = 60
	cfg.SyntheticInitial = 80
	cfg.Fig10Partitions = []int{16}
	return cfg
}

// BenchmarkFig2 regenerates Fig. 2 (raw HE-PKI / HE-IBE / IBBE group
// creation latency and metadata expansion).
func BenchmarkFig2(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6a regenerates Fig. 6a (system-setup latency per partition
// size).
func BenchmarkFig6a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		for _, m := range cfg.PartitionSizes {
			if _, err := benchmark.NewRawIBBE(cfg.Params, m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6b regenerates Fig. 6b (user-key extraction throughput).
func BenchmarkFig6b(b *testing.B) {
	cfg := benchConfig()
	raw, err := benchmark.NewRawIBBE(cfg.Params, cfg.Capacity)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := raw.Scheme.Extract(raw.MSK, fmt.Sprintf("user-%d@bench", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7a regenerates Fig. 7a (IBBE-SGX vs HE create/remove/footprint).
func BenchmarkFig7a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig7a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7b regenerates Fig. 7b (the partition-size sweep).
func BenchmarkFig7b(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig7b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8a regenerates Fig. 8a (the add-user latency CDF).
func BenchmarkFig8a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig8a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8b regenerates Fig. 8b (client decryption vs partition size).
func BenchmarkFig8b(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig8b(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9 (kernel-trace replay).
func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates Fig. 10 (revocation-rate sweep).
func BenchmarkFig10(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (complexity exponents by operation
// counting).
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelPartitionEngine compares the core manager's serial path
// against the bounded worker pool on an 8-partition group: create, then a
// removal that re-keys every partition. Partition ciphertexts are mutually
// independent (§IV-C), so on an N-core runner the parallel variant should
// approach min(8, N)× the serial throughput.
func BenchmarkParallelPartitionEngine(b *testing.B) {
	cfg := benchConfig()
	const partitions = 8
	run := func(b *testing.B, workers int) {
		members := make([]string, partitions*cfg.Capacity)
		for i := range members {
			members[i] = fmt.Sprintf("par-%04d@bench", i)
		}
		for i := 0; i < b.N; i++ {
			ctl, err := benchmark.NewIBBEController(cfg.Params, cfg.Capacity, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			ctl.Mgr.DisableRepartition = true
			ctl.Mgr.SetParallelism(workers)
			if err := ctl.CreateGroup("g", members); err != nil {
				b.Fatal(err)
			}
			if err := ctl.RemoveUser("g", members[0]); err != nil {
				b.Fatal(err)
			}
			if _, err := ctl.Mgr.RekeyGroup("g"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.NumCPU()) })
}

// BenchmarkBatchedMembership compares N singular membership operations
// against one batched call on a four-partition group. The removal gap grows
// linearly in N: the loop re-keys every partition per removed user, the
// batch once in total.
func BenchmarkBatchedMembership(b *testing.B) {
	cfg := benchConfig()
	const batch = 16
	base := make([]string, 4*cfg.Capacity)
	for i := range base {
		base[i] = fmt.Sprintf("base-%04d@bench", i)
	}
	joiners := make([]string, batch)
	for i := range joiners {
		joiners[i] = fmt.Sprintf("join-%04d@bench", i)
	}
	run := func(b *testing.B, batched bool) {
		for i := 0; i < b.N; i++ {
			ctl, err := benchmark.NewIBBEController(cfg.Params, cfg.Capacity, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			ctl.Mgr.DisableRepartition = true
			ctl.Mgr.SetParallelism(1)
			if err := ctl.CreateGroup("g", base); err != nil {
				b.Fatal(err)
			}
			if batched {
				if _, err := ctl.Mgr.AddUsers("g", joiners); err != nil {
					b.Fatal(err)
				}
				if _, err := ctl.Mgr.RemoveUsers("g", joiners); err != nil {
					b.Fatal(err)
				}
				continue
			}
			for _, u := range joiners {
				if _, err := ctl.Mgr.AddUser("g", u); err != nil {
					b.Fatal(err)
				}
			}
			for _, u := range joiners {
				if _, err := ctl.Mgr.RemoveUser("g", u); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("looped", func(b *testing.B) { run(b, false) })
	b.Run("batched", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationNoC3 quantifies the C3 augmentation (paper Appendix A,
// eq. 5). Removal with C3 is O(1) exponentiations. Without C3 an
// MSK-holding enclave would re-encrypt the partition (O(|p|) scalar work —
// cheap at small |p|), and a PK-only issuer would re-run the classic
// quadratic encryption (the paper's original IBBE assumption) — the third
// sub-benchmark, where the gap is dramatic.
func BenchmarkAblationNoC3(b *testing.B) {
	params := pairing.TypeA160()
	s := ibbe.NewScheme(params)
	const m = 64
	msk, pk, err := s.Setup(m, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	group := make([]string, m)
	for i := range group {
		group[i] = fmt.Sprintf("user-%03d@bench", i)
	}
	_, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("with-c3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.RemoveUser(msk, pk, ct, group[0], rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-c3-reencrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.EncryptMSK(msk, pk, group[1:], rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-c3-classic-reencrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.EncryptClassic(pk, group[1:], rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRepartition quantifies the §V-A occupancy heuristic on a
// revocation-heavy replay: with the heuristic the group collapses into few
// dense partitions; without it, every removal keeps re-keying the sparse
// partition set.
func BenchmarkAblationRepartition(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		cfg := benchConfig()
		for i := 0; i < b.N; i++ {
			ctl, err := benchmark.NewIBBEController(cfg.Params, 8, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			ctl.Mgr.DisableRepartition = disable
			group := make([]string, 64)
			for j := range group {
				group[j] = fmt.Sprintf("user-%03d@bench", j)
			}
			if err := ctl.CreateGroup("g", group); err != nil {
				b.Fatal(err)
			}
			// Revoke three quarters of the group.
			for j := 0; j < 48; j++ {
				if err := ctl.RemoveUser("g", group[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("with-heuristic", func(b *testing.B) { run(b, false) })
	b.Run("without-heuristic", func(b *testing.B) { run(b, true) })
}
