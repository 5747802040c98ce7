package benchmark

import (
	"strings"
	"testing"
)

// TestReadPathHoldsItsProperties runs the read-path experiment at CI scale:
// RunReadPath fails on a failed read, a store round trip in the warm window
// or a rekey that was not routed direct, so no error is the whole assertion.
func TestReadPathHoldsItsProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("live-cluster read path: skipped in -short CI runs")
	}
	rows, err := RunReadPath(CIScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want the baseline, cached and rebalance arms", len(rows))
	}
}

// TestCheckReadPathFlagsEachProperty feeds the checker rows that each break
// one property and expects exactly that property named.
func TestCheckReadPathFlagsEachProperty(t *testing.T) {
	good := func() []ReadPathRow {
		return []ReadPathRow{
			{Mode: "baseline", Groups: 8, StoreGets: 3_000},
			{Mode: "cached", Groups: 8},
			{Mode: "rebalance", Groups: 8, StoreGets: 100, CacheMisses: 120, RekeyOps: 8, DirectOps: 8},
		}
	}
	if err := checkReadPath(good()); err != nil {
		t.Fatalf("good rows rejected: %v", err)
	}
	for _, tc := range []struct {
		want   string
		mutate func(rows []ReadPathRow)
	}{
		{"baseline arm: 2 failed reads", func(rows []ReadPathRow) { rows[0].FailedReads = 2 }},
		{"rebalance arm: 1 failed reads", func(rows []ReadPathRow) { rows[2].FailedReads = 1 }},
		{"cached window cost 3 store GETs", func(rows []ReadPathRow) { rows[1].StoreGets = 3 }},
		{"0 store GETs and 5 cache misses", func(rows []ReadPathRow) { rows[1].CacheMisses = 5 }},
		{"7 rekeys", func(rows []ReadPathRow) { rows[2].RekeyOps, rows[2].DirectOps = 7, 7 }},
		{"(7 direct, 1 proxied)", func(rows []ReadPathRow) { rows[2].DirectOps, rows[2].ProxiedOps = 7, 1 }},
	} {
		rows := good()
		tc.mutate(rows)
		err := checkReadPath(rows)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want it to name %q", err, tc.want)
		}
	}
}
