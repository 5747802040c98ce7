package benchmark

import (
	"strings"
	"testing"
)

// TestMillionUserSweep runs the scenario suite at a trimmed CI scale: the
// full phase set on a live 2-shard cluster. RunMillionUser itself fails on
// a failed op or decrypt, an empty phase, or a resident-page peak over the
// bound; the test checks the shape around those properties — every phase
// reported, the bound carried, and paging actually engaged.
func TestMillionUserSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("live-cluster sweep: skipped in -short CI runs")
	}
	cfg := CIScale()
	// Trim below bench scale: the shape (many Zipf groups, all four
	// phases, residency bound smaller than the largest group's page
	// count) is what the test asserts, not throughput.
	cfg.WLUsers = 2_000
	cfg.WLGroups = 24
	cfg.WLDiurnalOps = 120
	cfg.MaxResidentPages = 4

	rows, err := RunMillionUser(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := []string{"provision", "flash-crowd", "mass-revocation", "diurnal"}
	if len(rows) != len(wantPhases) {
		t.Fatalf("rows = %d, want %d", len(rows), len(wantPhases))
	}
	for i, r := range rows {
		if r.Phase != wantPhases[i] {
			t.Fatalf("row %d phase = %q, want %q", i, r.Phase, wantPhases[i])
		}
		if r.MaxResidentLimit != cfg.MaxResidentPages {
			t.Fatalf("%s phase reports limit %d, want %d", r.Phase, r.MaxResidentLimit, cfg.MaxResidentPages)
		}
	}
	// Paging must actually be exercised: the bound is far below the page
	// population, so a zero eviction count means the LRU never engaged.
	var ev uint64
	for _, r := range rows {
		ev += r.Evictions
	}
	if ev == 0 {
		t.Fatal("sweep ran without a single page eviction — residency bound not engaged")
	}
}

// TestCheckMillionUserFlagsEachProperty feeds the checker rows that each
// break one property — in phases other than the revocation sweep too — and
// expects exactly that property named.
func TestCheckMillionUserFlagsEachProperty(t *testing.T) {
	good := func() []MillionUserRow {
		return []MillionUserRow{
			{Phase: "provision", Ops: 10, Decrypts: 16, ResidentPagesPeak: 8, MaxResidentLimit: 8},
			{Phase: "flash-crowd", Ops: 10, Decrypts: 16, ResidentPagesPeak: 8, MaxResidentLimit: 8},
		}
	}
	if err := checkMillionUser(good()); err != nil {
		t.Fatalf("good rows rejected: %v", err)
	}
	for _, tc := range []struct {
		want   string
		mutate func(rows []MillionUserRow)
	}{
		{"provision phase: 0 of 0 ops failed", func(rows []MillionUserRow) { rows[0].Ops = 0 }},
		{"flash-crowd phase: 1 of 10 ops failed", func(rows []MillionUserRow) { rows[1].FailedOps = 1 }},
		{"provision phase: 0 decrypts", func(rows []MillionUserRow) { rows[0].Decrypts = 0 }},
		{"flash-crowd phase: 16 decrypts, 2 failed", func(rows []MillionUserRow) { rows[1].FailedDecrypts = 2 }},
		{"flash-crowd phase: 9 resident pages", func(rows []MillionUserRow) { rows[1].ResidentPagesPeak = 9 }},
	} {
		rows := good()
		tc.mutate(rows)
		err := checkMillionUser(rows)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want it to name %q", err, tc.want)
		}
	}
}
