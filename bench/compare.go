package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runSet is one side of a comparison: every run found in a list of reports.
type runSet struct {
	// values[workload][metric] holds the metric's value in each run.
	values map[string]map[string]samples
	// streams[workload] is the set of (ops, stream hash) pairs the runs
	// replayed; exact counters only compare across identical streams.
	streams map[string]map[string]bool
}

func loadRunSet(paths string) (*runSet, error) {
	set := &runSet{values: make(map[string]map[string]samples), streams: make(map[string]map[string]bool)}
	for _, path := range strings.Split(paths, ",") {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(blob, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, res := range rep.Results {
			set.add(res)
		}
	}
	return set, nil
}

func (s *runSet) add(res *result) {
	if s.values[res.Workload] == nil {
		s.values[res.Workload] = make(map[string]samples)
		s.streams[res.Workload] = make(map[string]bool)
	}
	s.streams[res.Workload][fmt.Sprintf("%d/%s", res.Ops, res.StreamSHA256)] = true
	for _, m := range res.Metrics {
		s.values[res.Workload][m.Name] = append(s.values[res.Workload][m.Name], m.Value)
	}
}

// sameStream reports whether every run of the workload on both sides
// replayed one and the same op stream.
func sameStream(a, b *runSet, workload string) bool {
	if len(a.streams[workload]) != 1 || len(b.streams[workload]) != 1 {
		return false
	}
	for k := range a.streams[workload] {
		return b.streams[workload][k]
	}
	return false
}

// verdict applies one catalog row to the medians of the two sides: timings
// by the relative bound, exact counters by equality over every run.
func verdict(def metricDef, a, b samples, exactComparable bool) string {
	if def.Exact {
		if !exactComparable {
			return "n/a (different op streams; rerun both sides with the same -seed and -ops)"
		}
		for _, v := range append(append(samples(nil), a...), b...) {
			if v != a[0] {
				return "regressed (exact counter differs)"
			}
		}
		return "within"
	}
	if def.Bound == 0 {
		return ""
	}
	ma, mb := a.median(), b.median()
	worse := ratio(mb-ma, ma)
	if def.Higher {
		worse = ratio(ma-mb, ma)
	}
	switch {
	case worse > def.Bound:
		return "regressed"
	case worse < -def.Bound:
		return "improved"
	}
	return "within"
}

// compareFiles prints, per workload × metric, whether side B is within,
// regressed or improved against side A, and reports whether anything
// regressed.
func compareFiles(w io.Writer, pathsA, pathsB string) (bool, error) {
	a, err := loadRunSet(pathsA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(pathsB)
	if err != nil {
		return false, err
	}
	regressed := false
	names := make([]string, 0, len(a.values))
	for name := range a.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, workload := range names {
		exactComparable := sameStream(a, b, workload)
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range list {
				va, vb := a.values[workload][def.Name], b.values[workload][def.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v := verdict(def, va, vb, exactComparable)
				if v == "" {
					continue
				}
				if strings.HasPrefix(v, "regressed") {
					regressed = true
				}
				fmt.Fprintf(w, "%-16s %-36s %14.4f -> %14.4f %-7s (%d vs %d runs) %s\n",
					workload, def.Name, va.median(), vb.median(), def.Unit, len(va), len(vb), v)
			}
		}
	}
	return regressed, nil
}
