package benchmark

import (
	"crypto/rand"
	"fmt"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/ibbe/ibberef"
)

// names generates n deterministic identities.
func names(n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%06d@bench.example", prefix, i)
	}
	return out
}

// Fig2Row is one group size of Fig. 2: raw-scheme group creation latency
// (a) and group metadata expansion (b), before any SGX integration.
type Fig2Row struct {
	N           int
	HEPKICreate time.Duration
	HEIBECreate time.Duration
	IBBECreate  time.Duration // classic O(n²) public-key-only encryption
	HEPKIBytes  int
	HEIBEBytes  int
	IBBEBytes   int // constant: one broadcast header
}

// RunFig2 regenerates Fig. 2 on the configured group-size grid.
func RunFig2(cfg Config) ([]Fig2Row, error) {
	maxN := cfg.GroupSizes[len(cfg.GroupSizes)-1]
	members := names(maxN, "fig2")

	hepki := NewHEPKIController()
	if err := hepki.RegisterAll(members); err != nil {
		return nil, err
	}
	heibe, err := NewHEIBEController(cfg.Params)
	if err != nil {
		return nil, err
	}
	// The raw baseline deliberately runs the reference scheme (package
	// ibberef, big.Int arithmetic): Fig. 2 characterises the textbook
	// classic scheme the paper rejected, not the limb-optimised arithmetic
	// IBBE-SGX runs on (that is what Figs. 6–10 measure).
	raw := ibberef.New(cfg.Params)
	_, rawPK, err := raw.Setup(maxN, rand.Reader)
	if err != nil {
		return nil, err
	}
	headerLen := ibbe.NewScheme(cfg.Params).HeaderLen() // constant regardless of n

	rows := make([]Fig2Row, 0, len(cfg.GroupSizes))
	for _, n := range cfg.GroupSizes {
		row := Fig2Row{N: n}
		group := members[:n]

		gname := fmt.Sprintf("fig2-pki-%d", n)
		row.HEPKICreate, err = Sample(1, func() error { return hepki.CreateGroup(gname, group) })
		if err != nil {
			return nil, err
		}
		row.HEPKIBytes, err = hepki.MetadataSize(gname)
		if err != nil {
			return nil, err
		}

		gname = fmt.Sprintf("fig2-ibe-%d", n)
		row.HEIBECreate, err = Sample(1, func() error { return heibe.CreateGroup(gname, group) })
		if err != nil {
			return nil, err
		}
		row.HEIBEBytes, err = heibe.MetadataSize(gname)
		if err != nil {
			return nil, err
		}

		row.IBBECreate, err = Sample(1, func() error {
			_, _, err := raw.EncryptClassic(rawPK, group, rand.Reader)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.IBBEBytes = headerLen
		rows = append(rows, row)
	}
	return rows, nil
}

// OpCount is the primitive operations one scheme call performed, read off
// ibbe.Metrics around it: exact, where the call's wall-clock time is not.
type OpCount struct {
	G1Exp, G1ExpFixedCT, Pairings int64
}

// countOps runs call and returns the operations it added to m; calls on m
// must not overlap.
func countOps(m *ibbe.Metrics, call func() error) (OpCount, error) {
	g1, ct, pr := m.G1Exp.Load(), m.G1ExpFixedCT.Load(), m.Pairings.Load()
	err := call()
	return OpCount{G1Exp: m.G1Exp.Load() - g1, G1ExpFixedCT: m.G1ExpFixedCT.Load() - ct, Pairings: m.Pairings.Load() - pr}, err
}

// Fig6Row is one partition size of Fig. 6: system-setup latency (a) and
// user-key extraction throughput (b).
type Fig6Row struct {
	M                int
	SetupLatency     time.Duration
	ExtractOpsPerSec float64
	// ExtractOps is each sampled extraction's operation count: the reason
	// the throughput is flat in M.
	ExtractOps []OpCount
}

// RunFig6 regenerates Fig. 6 on the configured partition-size grid. The
// bootstrap operations are timed on the raw scheme (the computation the
// enclave runs inside EcallSetup / Extract, without the provisioning wrap).
func RunFig6(cfg Config) ([]Fig6Row, error) {
	rows := make([]Fig6Row, 0, len(cfg.PartitionSizes))
	for _, m := range cfg.PartitionSizes {
		row := Fig6Row{M: m}

		var raw *RawIBBE
		lat, err := Sample(1, func() error {
			r, err := NewRawIBBE(cfg.Params, m)
			raw = r
			return err
		})
		if err != nil {
			return nil, err
		}
		row.SetupLatency = lat

		ids := names(cfg.ExtractSamples, fmt.Sprintf("fig6-%d", m))
		ops := &ibbe.Metrics{}
		raw.Scheme.Metrics = ops
		start := time.Now()
		for _, id := range ids {
			n, err := countOps(ops, func() error {
				_, err := raw.Scheme.Extract(raw.MSK, id)
				return err
			})
			if err != nil {
				return nil, err
			}
			row.ExtractOps = append(row.ExtractOps, n)
		}
		elapsed := time.Since(start)
		row.ExtractOpsPerSec = float64(len(ids)) / elapsed.Seconds()
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7aRow is one group size of Fig. 7a: create, remove and footprint for
// IBBE-SGX (fixed capacity) against HE.
type Fig7aRow struct {
	N          int
	IBBECreate time.Duration
	HECreate   time.Duration
	IBBERemove time.Duration
	HERemove   time.Duration
	IBBEBytes  int
	HEBytes    int
}

// RunFig7a regenerates Fig. 7a.
func RunFig7a(cfg Config) ([]Fig7aRow, error) {
	maxN := cfg.GroupSizes[len(cfg.GroupSizes)-1]
	members := names(maxN, "fig7a")
	hepki := NewHEPKIController()
	if err := hepki.RegisterAll(members); err != nil {
		return nil, err
	}

	rows := make([]Fig7aRow, 0, len(cfg.GroupSizes))
	for _, n := range cfg.GroupSizes {
		row := Fig7aRow{N: n}
		group := members[:n]
		capacity := cfg.Capacity
		if capacity > n {
			capacity = n
		}
		ibbeCtl, err := NewIBBEController(cfg.Params, capacity, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Repartitioning is an orthogonal effect for this isolated figure.
		ibbeCtl.Mgr.DisableRepartition = true

		gname := fmt.Sprintf("g%d", n)
		row.IBBECreate, err = Sample(1, func() error { return ibbeCtl.CreateGroup(gname, group) })
		if err != nil {
			return nil, err
		}
		row.IBBERemove, err = Sample(1, func() error { return ibbeCtl.RemoveUser(gname, group[n/2]) })
		if err != nil {
			return nil, err
		}
		row.IBBEBytes, err = ibbeCtl.MetadataSize(gname)
		if err != nil {
			return nil, err
		}

		row.HECreate, err = Sample(1, func() error { return hepki.CreateGroup(gname, group) })
		if err != nil {
			return nil, err
		}
		row.HERemove, err = Sample(1, func() error { return hepki.RemoveUser(gname, group[n/4]) })
		if err != nil {
			return nil, err
		}
		row.HEBytes, err = hepki.MetadataSize(gname)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7bRow is one (group size, partition size) cell of Fig. 7b.
type Fig7bRow struct {
	N, M   int
	Create time.Duration
	Remove time.Duration
	Bytes  int
}

// RunFig7b regenerates Fig. 7b: IBBE-SGX create/remove/footprint across
// partition sizes for the largest configured groups.
func RunFig7b(cfg Config) ([]Fig7bRow, error) {
	// The paper uses the top group sizes (100k, 500k, 1M); mirror with the
	// top half of the configured grid.
	sizes := cfg.GroupSizes[len(cfg.GroupSizes)/2:]
	maxN := sizes[len(sizes)-1]
	members := names(maxN, "fig7b")

	rows := make([]Fig7bRow, 0, len(sizes)*len(cfg.PartitionSizes))
	for _, n := range sizes {
		for _, m := range cfg.PartitionSizes {
			capacity := m
			if capacity > n {
				capacity = n
			}
			ctl, err := NewIBBEController(cfg.Params, capacity, cfg.Seed)
			if err != nil {
				return nil, err
			}
			ctl.Mgr.DisableRepartition = true
			row := Fig7bRow{N: n, M: m}
			group := members[:n]
			gname := fmt.Sprintf("g%d-%d", n, m)
			row.Create, err = Sample(1, func() error { return ctl.CreateGroup(gname, group) })
			if err != nil {
				return nil, err
			}
			row.Remove, err = Sample(1, func() error { return ctl.RemoveUser(gname, group[n/2]) })
			if err != nil {
				return nil, err
			}
			row.Bytes, err = ctl.MetadataSize(gname)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig8aResult holds the add-latency distributions of Fig. 8a.
type Fig8aResult struct {
	IBBE *CDF
	HE   *CDF
	// NewPartitionAdds counts IBBE adds that had to open a partition (the
	// slow mode of the bimodal CDF).
	NewPartitionAdds int
	// IBBEAddOps is each IBBE-SGX add's operation count in stream order,
	// and NewPartition marks the adds that opened a partition.
	IBBEAddOps   []OpCount
	NewPartition []bool
	// HEAddBytes is the metadata each HE add wrote: one ECIES box.
	HEAddBytes []int
}

// RunFig8a regenerates Fig. 8a: the CDF of add-user latency. The group
// starts with partitions nearly full so the add stream exercises both arms
// of Algorithm 2.
func RunFig8a(cfg Config) (*Fig8aResult, error) {
	capacity := cfg.Capacity
	n := capacity * 4
	members := names(n+cfg.AddSamples, "fig8a")
	initial := members[:n]

	ctl, err := NewIBBEController(cfg.Params, capacity, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := ctl.CreateGroup("g", initial); err != nil {
		return nil, err
	}
	hepki := NewHEPKIController()
	if err := hepki.RegisterAll(members); err != nil {
		return nil, err
	}
	if err := hepki.CreateGroup("g", initial); err != nil {
		return nil, err
	}

	var (
		ibbeLat []time.Duration
		heLat   []time.Duration
	)
	res := &Fig8aResult{}
	for i := 0; i < cfg.AddSamples; i++ {
		user := members[n+i]
		before, err := ctl.Mgr.PartitionCount("g")
		if err != nil {
			return nil, err
		}
		var lat time.Duration
		ops, err := countOps(ctl.ops, func() error {
			start := time.Now()
			err := ctl.AddUser("g", user)
			lat = time.Since(start)
			return err
		})
		if err != nil {
			return nil, err
		}
		ibbeLat = append(ibbeLat, lat)
		after, err := ctl.Mgr.PartitionCount("g")
		if err != nil {
			return nil, err
		}
		res.IBBEAddOps = append(res.IBBEAddOps, ops)
		res.NewPartition = append(res.NewPartition, after > before)
		if after > before {
			res.NewPartitionAdds++
		}

		heBefore, err := hepki.MetadataSize("g")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := hepki.AddUser("g", user); err != nil {
			return nil, err
		}
		heLat = append(heLat, time.Since(start))
		heAfter, err := hepki.MetadataSize("g")
		if err != nil {
			return nil, err
		}
		res.HEAddBytes = append(res.HEAddBytes, heAfter-heBefore)
	}
	res.IBBE, res.HE = NewCDF(ibbeLat), NewCDF(heLat)
	return res, nil
}

// Fig8bRow is one partition size of Fig. 8b: client decryption latency.
type Fig8bRow struct {
	M           int
	IBBEDecrypt time.Duration
	HEDecrypt   time.Duration
	// IBBEDecryptZrMul is the Z_r multiplications of the sampled IBBE
	// decrypt — the polynomial expansion that makes it quadratic in M.
	IBBEDecryptZrMul int64
}

// RunFig8b regenerates Fig. 8b: IBBE-SGX decryption is quadratic in the
// partition size while HE decryption is constant.
func RunFig8b(cfg Config) ([]Fig8bRow, error) {
	hepki := NewHEPKIController()
	rows := make([]Fig8bRow, 0, len(cfg.PartitionSizes))
	for _, m := range cfg.PartitionSizes {
		members := names(m, fmt.Sprintf("fig8b-%d", m))
		if err := hepki.RegisterAll(members); err != nil {
			return nil, err
		}
		ctl, err := NewIBBEController(cfg.Params, m, cfg.Seed)
		if err != nil {
			return nil, err
		}
		gname := fmt.Sprintf("g%d", m)
		if err := ctl.CreateGroup(gname, members); err != nil {
			return nil, err
		}
		if err := hepki.CreateGroup(gname, members); err != nil {
			return nil, err
		}
		row := Fig8bRow{M: m}
		row.IBBEDecrypt, err = ctl.SampleDecrypt(gname, members[m/2])
		if err != nil {
			return nil, err
		}
		row.IBBEDecryptZrMul = ctl.DecryptZrMul
		row.HEDecrypt, err = hepki.SampleDecrypt(gname, members[m/2])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
