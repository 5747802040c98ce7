package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func better(d metricDef) string {
	if d.Higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesCatalog keeps the driver's contract file and the
// program's catalog identical.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bm.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(bm.Workloads[i].Why) > 200 {
			t.Errorf("workload %q breaks the name or why limits", w.Name)
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalog %d+%d", len(bm.EndToEnd), len(bm.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, d := range endToEnd {
		got := bm.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d) || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		got := bm.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d) {
			t.Errorf("per_layer[%d] = %+v, catalog has %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeEveryWorkload runs every workload at 30 ops on the test scale,
// untraced and traced, and checks that each run is correct and emits exactly
// the metrics BENCHMARK.json promises for it.
func TestSmokeEveryWorkload(t *testing.T) {
	sc := testScale()
	ctx := context.Background()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := runOpts{Seed: 7, Ops: 30, Traced: traced}
			want := endToEnd
			if traced {
				opts.OutDir = t.TempDir()
				want = perLayer
			}
			res, err := runWorkload(ctx, w, sc, opts)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%t: failed=%d violations=%v", w.Name, traced, res.Failed, res.Violations)
			}
			if res.Ops != 30 || res.Attempted < 30 {
				t.Errorf("%s traced=%t: ops=%d attempted=%d, want 30 measured ops", w.Name, traced, res.Ops, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics emitted, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if _, ok := res.get(d.Name); !ok {
					t.Errorf("%s traced=%t: metric %s not emitted", w.Name, traced, d.Name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(opts.OutDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				checkLedger(t, w, res)
			}
		}
	}
}

// checkLedger asserts what the code already tells us about each workload, as
// a sanity check of the instrument.
func checkLedger(t *testing.T, w spec, res *result) {
	t.Helper()
	value := func(name string) float64 {
		m, _ := res.get(name)
		return m.Value
	}
	if got := value("admin.restore_store_calls"); got != 2 {
		t.Errorf("%s: admin.restore_store_calls = %v, want 2", w.Name, got)
	}
	if got := value("admin.store_calls_add"); got < 3 || got > 4 {
		t.Errorf("%s: admin.store_calls_add = %v, want about 3", w.Name, got)
	}
	if evicts := value("core.page_evictions_per_op"); (evicts > 0) != (w.MaxResident > 0) {
		t.Errorf("%s: core.page_evictions_per_op = %v with a page bound of %d", w.Name, evicts, w.MaxResident)
	}
	if self := value("client.route_self_add_p50_ms"); (self > 0) != w.Routed {
		t.Errorf("%s: client.route_self_add_p50_ms = %v, routed = %t", w.Name, self, w.Routed)
	}
}

// TestBoxClockScalesByNeighbours: a measurement is reported at the reference
// speed by the kernel runs on either side of it, and only on a workload whose
// timings are all CPU time.
func TestBoxClockScalesByNeighbours(t *testing.T) {
	b := boxClock{ms: samples{kernelRefMS, 3 * kernelRefMS, 5 * kernelRefMS, 4 * kernelRefMS, 4 * kernelRefMS}}
	if got := b.speedAt(1); got != 0.5 {
		t.Errorf("speedAt(1) = %v, want 0.5 (kernel runs of 1x and 3x the reference time)", got)
	}
	if got := b.speedAt(2); got != 0.25 {
		t.Errorf("speedAt(2) = %v, want 0.25", got)
	}
	if got := b.speed(); got != 0.25 {
		t.Errorf("speed() = %v, want 0.25 (the median kernel run took 4x the reference time)", got)
	}
	if ms := runKernel(); ms <= 0 {
		t.Errorf("runKernel() = %v ms", ms)
	}
	sc := paperScale()
	for _, w := range workloads {
		if got, want := sc.sized(w).cpuBound(), !w.Routed; got != want {
			t.Errorf("%s: cpuBound = %t, want %t", w.Name, got, want)
		}
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	sc := testScale()
	stream := func(seed int64, w spec) (string, string) {
		g := newGenerator(seed, sc.sized(w))
		for i := 0; i < 2*prefixOps; i++ {
			g.next()
		}
		return g.streamSHA256(), g.prefixSHA256()
	}
	cloud, local := workloads[0], workloads[1]
	full1, prefix1 := stream(2018, cloud)
	full2, prefix2 := stream(2018, cloud)
	if full1 != full2 || prefix1 != prefix2 {
		t.Errorf("same seed, different streams: %s vs %s", full1, full2)
	}
	if other, _ := stream(2019, cloud); other == full1 {
		t.Errorf("different seeds gave the same stream %s", full1)
	}
	// cloud_routed and local_compute replay the same stream.
	if _, prefixLocal := stream(2018, local); prefixLocal != prefix1 || prefix1 == "" {
		t.Errorf("cloud_routed prefix %q, local_compute prefix %q", prefix1, prefixLocal)
	}
}

// TestOracleTracksStream checks the reference model against a replay of the
// ops it emitted.
func TestOracleTracksStream(t *testing.T) {
	g := newGenerator(3, testScale().sized(workloads[0]))
	replay := make([]map[string]bool, len(g.groups))
	for i, m := range g.groups {
		replay[i] = make(map[string]bool)
		for _, u := range m.Initial {
			replay[i][u] = true
		}
	}
	adds := 0
	for i := 0; i < 2000; i++ {
		o := g.next()
		// Kinds are dealt in balanced blocks: no prefix is further from an
		// even mix than half a block.
		if o.Kind == opAdd {
			adds++
		}
		if skew := 2*adds - (i + 1); skew > kindBlock/2 || skew < -kindBlock/2 {
			t.Fatalf("after %d ops: %d adds, %d removes", i+1, adds, i+1-adds)
		}
		if o.Kind == opAdd {
			if replay[o.Group][o.User] {
				t.Fatalf("op %d adds existing member %s", i, o.User)
			}
			replay[o.Group][o.User] = true
		} else {
			if !replay[o.Group][o.User] {
				t.Fatalf("op %d removes non-member %s", i, o.User)
			}
			delete(replay[o.Group], o.User)
		}
	}
	for i, m := range g.groups {
		got := m.Members()
		if len(got) != len(replay[i]) || m.Size() != len(replay[i]) {
			t.Errorf("%s: oracle has %d members (Size %d), replay %d", m.Name, len(got), m.Size(), len(replay[i]))
		}
		for _, u := range m.Pinned {
			if !replay[i][u] {
				t.Errorf("%s: pinned member %s was removed", m.Name, u)
			}
		}
		for _, u := range m.RemovedCanaries {
			if replay[i][u] {
				t.Errorf("%s: removed canary %s is still a member", m.Name, u)
			}
		}
	}
}

// TestReaderLatenessInvalidatesRun: an open-loop reader that cannot keep its
// schedule makes the run incorrect.
func TestReaderLatenessInvalidatesRun(t *testing.T) {
	if !readerTooLate(100, 100*time.Millisecond) || readerTooLate(99.9, 100*time.Millisecond) {
		t.Error("readerTooLate: the limit is the read interval")
	}
	w := workloads[1]
	w.ReadRate = 1e6 // one read per microsecond: the reader is always late
	res, err := runWorkload(context.Background(), w, testScale(), runOpts{Seed: 7, Ops: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || !strings.Contains(strings.Join(res.Violations, "\n"), "invalid run") {
		t.Errorf("correct=%t violations=%v, want an invalid run", res.Correct, res.Violations)
	}
}

// TestCompareAppliesBounds: a median half a bound worse passes, one and a half
// bounds worse is flagged, in either direction of "better", and an exact
// counter must not move at all.
func TestCompareAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	latency, _ := lookupDef("add_p50_ms")
	rate, _ := lookupDef("admin_ops_per_s")
	write := func(name string, addP50, opsPerS, calls float64) string {
		res := &result{Workload: "local_compute", Ops: 30, StreamSHA256: "same"}
		res.set(latency.Name, addP50, 15)
		res.set(rate.Name, opsPerS, 30)
		res.set("admin.store_calls_add", calls, 15)
		blob, err := json.Marshal(report{Results: []*result{res}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 10, 100, 3)
	for _, tc := range []struct {
		name      string
		path      string
		regressed bool
		want      string
	}{
		{"half a bound slower passes", write("ok.json", 10*(1+latency.Bound/2), 100*(1-rate.Bound/2), 3), false, "within"},
		{"1.5 bounds slower is flagged", write("slow.json", 10*(1+1.5*latency.Bound), 100, 3), true, "regressed"},
		{"1.5 bounds less throughput is flagged", write("few.json", 10, 100*(1-1.5*rate.Bound), 3), true, "regressed"},
		{"1.5 bounds faster is an improvement", write("fast.json", 10*(1-1.5*latency.Bound), 100, 3), false, "improved"},
		{"an exact counter must not move", write("calls.json", 10, 100, 4), true, "exact counter differs"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%t, output:\n%s", tc.name, regressed, out.String())
		}
	}
}
