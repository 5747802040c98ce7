package benchmark

import (
	"fmt"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/trace"
)

// Fig9Row is one partition size of Fig. 9: kernel-trace replay.
type Fig9Row struct {
	// Scheme is "ibbe-sgx" (with M set) or "he-pki".
	Scheme string
	M      int
	// AdminTotal is the total administrator replay time (left plot).
	AdminTotal time.Duration
	// AvgDecrypt is the mean sampled user decryption time (right plot).
	AvgDecrypt time.Duration
	// Repartitions counts heuristic-triggered re-layouts during the replay.
	Repartitions int64
	// AdminG1Exp and ZrMulPerDecrypt are the operation counts behind the two
	// plots (IBBE-SGX rows only): G1 exponentiations over the whole admin
	// replay, mean Z_r multiplications per sampled decrypt.
	AdminG1Exp      int64
	ZrMulPerDecrypt float64
}

// RunFig9 regenerates Fig. 9: replay the (synthesized) Linux-kernel ACL
// trace at each partition size, and once with the HE baseline.
func RunFig9(cfg Config) ([]Fig9Row, error) {
	kcfg := trace.KernelConfig{
		TotalOps: cfg.KernelOps,
		PeakLive: cfg.KernelPeak,
		Span:     10 * 365 * 24 * time.Hour,
		Seed:     cfg.Seed,
	}
	tr, err := trace.Kernel(kcfg)
	if err != nil {
		return nil, err
	}
	sampleEvery := cfg.KernelOps / 50
	if sampleEvery < 1 {
		sampleEvery = 1
	}

	rows := make([]Fig9Row, 0, len(cfg.Fig9Partitions)+1)
	for _, m := range cfg.Fig9Partitions {
		ctl, err := NewIBBEController(cfg.Params, m, cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := trace.Replay(tr, ctl, trace.ReplayOptions{
			Group:       "kernel",
			SampleEvery: sampleEvery,
			Sampler:     ctl,
		})
		if err != nil {
			return nil, fmt.Errorf("fig9 m=%d: %w", m, err)
		}
		row := Fig9Row{
			Scheme:       "ibbe-sgx",
			M:            m,
			AdminTotal:   res.AdminTime,
			AvgDecrypt:   res.AvgDecrypt(),
			Repartitions: ctl.Mgr.Repartitions(),
			AdminG1Exp:   ctl.AdminG1Exp,
		}
		if ctl.DecryptSamples > 0 {
			row.ZrMulPerDecrypt = float64(ctl.DecryptZrMul) / float64(ctl.DecryptSamples)
		}
		rows = append(rows, row)
	}

	// HE baseline replay.
	he := NewHEPKIController()
	if err := he.RegisterAll(traceUsers(tr)); err != nil {
		return nil, err
	}
	res, err := trace.Replay(tr, he, trace.ReplayOptions{
		Group:       "kernel",
		SampleEvery: sampleEvery,
		Sampler:     he,
	})
	if err != nil {
		return nil, fmt.Errorf("fig9 he: %w", err)
	}
	rows = append(rows, Fig9Row{Scheme: "he-pki", AdminTotal: res.AdminTime, AvgDecrypt: res.AvgDecrypt()})
	return rows, nil
}

// Fig10Row is one (partition size, revocation rate) cell of Fig. 10.
type Fig10Row struct {
	M         int
	Rate      float64
	Total     time.Duration
	FinalSize int
}

// RunFig10 regenerates Fig. 10: total replay time of IBBE-SGX on synthetic
// workloads with increasing revocation ratios, per partition size.
func RunFig10(cfg Config) ([]Fig10Row, error) {
	traces, err := trace.RevocationSweep(cfg.SyntheticOps, cfg.SyntheticInitial, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig10Row, 0, len(cfg.Fig10Partitions)*len(traces))
	for _, m := range cfg.Fig10Partitions {
		for i, tr := range traces {
			ctl, err := NewIBBEController(cfg.Params, m, cfg.Seed)
			if err != nil {
				return nil, err
			}
			res, err := trace.Replay(tr, ctl, trace.ReplayOptions{Group: tr.Name})
			if err != nil {
				return nil, fmt.Errorf("fig10 m=%d rate=%d0%%: %w", m, i, err)
			}
			rows = append(rows, Fig10Row{
				M:         m,
				Rate:      float64(i) / 10,
				Total:     res.AdminTime,
				FinalSize: res.FinalMetadataBytes,
			})
		}
	}
	return rows, nil
}

// traceUsers collects every identity a trace touches.
func traceUsers(tr *trace.Trace) []string {
	seen := make(map[string]bool)
	var out []string
	for _, u := range tr.Initial {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	for _, op := range tr.Ops {
		if !seen[op.User] {
			seen[op.User] = true
			out = append(out, op.User)
		}
	}
	return out
}

// Table1Row is one operation of Table I with its measured complexity
// exponents (slope of primitive-operation count vs. set size in log-log
// space: ≈0 constant, ≈1 linear, ≈2 quadratic).
type Table1Row struct {
	Operation    string
	IBBESGXSlope float64
	IBBESGXClaim string
	ClassicSlope float64
	ClassicClaim string
}

// RunTable1 reproduces Table I by counting primitive operations (Z_r
// multiplications + group exponentiations) at increasing set sizes and
// fitting the growth exponent — a noise-free check of the complexity
// claims.
func RunTable1(cfg Config) ([]Table1Row, error) {
	s := ibbe.NewScheme(cfg.Params)
	s.Metrics = &ibbe.Metrics{}
	sizes := []int{8, 16, 32, 64}
	maxN := sizes[len(sizes)-1]
	msk, pk, err := s.Setup(maxN, nil)
	if err != nil {
		return nil, err
	}
	groups := make([][]string, len(sizes))
	for i, n := range sizes {
		groups[i] = names(n, "table1")[:n]
	}

	// Each operation's complexity claim concerns a specific primitive: the
	// polynomial-expansion cost is Z_r multiplications, the setup cost is G1
	// exponentiations, and the O(1) claims bound every primitive. metric
	// selects the counter whose growth is fitted.
	cost := func(metric string) float64 {
		snap := s.Metrics.SnapshotMap()
		switch metric {
		case "zr":
			return float64(snap["zr_mul"])
		case "g1":
			return float64(snap["g1_exp"])
		default: // "total"
			return float64(snap["zr_mul"]) + 1000*float64(snap["g1_exp"]+snap["gt_exp"]) + 3000*float64(snap["pairings"])
		}
	}
	measure := func(metric string, op func(group []string) error) (float64, error) {
		xs := make([]float64, len(sizes))
		ys := make([]float64, len(sizes))
		for i, group := range groups {
			s.Metrics.Reset()
			if err := op(group); err != nil {
				return 0, err
			}
			xs[i] = float64(len(group))
			ys[i] = cost(metric) + 1 // +1 keeps zero-count ops fittable
		}
		return LogLogSlope(xs, ys)
	}

	rows := make([]Table1Row, 0, 6)

	slope, err := measure("zr", func(g []string) error {
		_, _, err := s.EncryptMSK(msk, pk, g, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	classicSlope, err := measure("zr", func(g []string) error {
		_, _, err := s.EncryptClassic(pk, g, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		Operation:    "Create Group Key (per partition)",
		IBBESGXSlope: slope, IBBESGXClaim: "O(|p|)",
		ClassicSlope: classicSlope, ClassicClaim: "O(|S|^2)",
	})

	// Add user: O(1) for IBBE-SGX; classic IBBE re-encrypts quadratically.
	cts := make([]*ibbe.Ciphertext, len(sizes))
	for i, g := range groups {
		_, ct, err := s.EncryptMSK(msk, pk, g, nil)
		if err != nil {
			return nil, err
		}
		cts[i] = ct
	}
	idx := 0
	slope, err = measure("total", func(g []string) error {
		s.AddUser(msk, cts[idx], "joiner@bench.example")
		idx++
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		Operation:    "Add User to Group",
		IBBESGXSlope: slope, IBBESGXClaim: "O(1)",
		ClassicSlope: classicSlope, ClassicClaim: "O(|S|^2)",
	})

	// Remove user: O(1) per partition for IBBE-SGX.
	idx = 0
	slope, err = measure("total", func(g []string) error {
		_, _, err := s.RemoveUser(msk, pk, cts[idx], g[0], nil)
		idx++
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		Operation:    "Remove User (per partition)",
		IBBESGXSlope: slope, IBBESGXClaim: "O(1)",
		ClassicSlope: classicSlope, ClassicClaim: "O(|S|^2)",
	})

	// Decrypt: quadratic in partition size under both models.
	uks := make([]*ibbe.UserKey, len(sizes))
	for i, g := range groups {
		uk, err := s.Extract(msk, g[0])
		if err != nil {
			return nil, err
		}
		uks[i] = uk
	}
	idx = 0
	slope, err = measure("zr", func(g []string) error {
		_, err := s.Decrypt(pk, g[0], uks[idx], g, cts[idx])
		idx++
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		Operation:    "Decrypt Group Key",
		IBBESGXSlope: slope, IBBESGXClaim: "O(|p|^2)",
		ClassicSlope: slope, ClassicClaim: "O(|S|^2)",
	})

	// Extract user key: O(1) under both models.
	i := 0
	slope, err = measure("total", func(g []string) error {
		_, err := s.Extract(msk, fmt.Sprintf("extract-%d@bench.example", i))
		i++
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		Operation:    "Extract User Key",
		IBBESGXSlope: slope, IBBESGXClaim: "O(1)",
		ClassicSlope: slope, ClassicClaim: "O(1)",
	})

	// System setup: linear in the supported (partition) size.
	setupScheme := ibbe.NewScheme(cfg.Params)
	setupScheme.Metrics = &ibbe.Metrics{}
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(sizes))
	for i, n := range sizes {
		setupScheme.Metrics.Reset()
		if _, _, err := setupScheme.Setup(n, nil); err != nil {
			return nil, err
		}
		xs[i] = float64(n)
		ys[i] = float64(setupScheme.Metrics.SnapshotMap()["g1_exp"]) + 1
	}
	slope, err = LogLogSlope(xs, ys)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{
		Operation:    "System Setup",
		IBBESGXSlope: slope, IBBESGXClaim: "O(|p|)",
		ClassicSlope: slope, ClassicClaim: "O(|S|)",
	})

	return rows, nil
}
