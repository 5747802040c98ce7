package benchmark

import (
	"crypto/rand"
	"fmt"
	"io"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/hybrid"
)

// EPCRow is one group size of the EPC-pressure experiment: the peak
// enclave-resident working set for a create-group operation under HE-inside-
// SGX versus IBBE-SGX.
type EPCRow struct {
	N             int
	HEPeakBytes   int64
	IBBEPeakBytes int64
}

// RunEPCExperiment quantifies the §III-B hypothesis that motivated the whole
// design: putting Hybrid Encryption inside the enclave inflates the enclave
// working set linearly with the group (risking EPC paging at large groups,
// 128 MB limit), while IBBE-SGX's per-partition working set stays constant.
// It reports the peak simulated resident set for one group creation.
func RunEPCExperiment(cfg Config) ([]EPCRow, error) {
	rows := make([]EPCRow, 0, len(cfg.GroupSizes))
	for _, n := range cfg.GroupSizes {
		members := names(n, "epc")

		// HE inside the enclave.
		hePlatform, err := enclave.NewPlatform("epc-he", rand.Reader)
		if err != nil {
			return nil, err
		}
		pki := hybrid.NewPKI()
		for _, m := range members {
			if err := pki.Register(m, rand.Reader); err != nil {
				return nil, err
			}
		}
		he := NewHEEnclave(hePlatform, pki)
		if _, err := he.EcallCreateGroup("g", members); err != nil {
			return nil, err
		}
		heStats := hePlatform.EPC()

		// IBBE-SGX: same group, partitioned.
		capacity := cfg.Capacity
		if capacity > n {
			capacity = n
		}
		ctl, err := NewIBBEController(cfg.Params, capacity, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if err := ctl.CreateGroup("g", members); err != nil {
			return nil, err
		}
		ibbeStats := ctl.Encl.Enclave().Platform().EPC()

		rows = append(rows, EPCRow{
			N:             n,
			HEPeakBytes:   heStats.PeakResident,
			IBBEPeakBytes: ibbeStats.PeakResident,
		})
	}
	return rows, nil
}

// PrintEPC writes the EPC-pressure table.
func PrintEPC(w io.Writer, rows []EPCRow) {
	fmt.Fprintln(w, "EPC pressure — peak enclave working set for one group creation (§III-B)")
	fmt.Fprintf(w, "%10s  %16s  %16s\n", "group", "HE-in-SGX", "IBBE-SGX")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d  %16s  %16s\n", r.N, Bytes(int(r.HEPeakBytes)), Bytes(int(r.IBBEPeakBytes)))
	}
	fmt.Fprintf(w, "shape: HE working set linear in the group (exceeds the %s EPC near 1M users); IBBE-SGX stays bounded by the partition\n",
		Bytes(enclave.DefaultEPCBytes))
}
