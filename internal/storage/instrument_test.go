package storage

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/obs"
)

func TestInstrumentNilRegistryUnwrapped(t *testing.T) {
	mem := NewMemStore(Latency{})
	if got := Instrument(mem, nil); got != Store(mem) {
		t.Fatalf("nil registry should return the store unwrapped, got %T", got)
	}
}

func TestInstrumentCountsOpsAndLatency(t *testing.T) {
	ctx := context.Background()
	r := obs.NewRegistry()
	st := Instrument(NewMemStore(Latency{}), r)

	if err := st.Put(ctx, "g", "p0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(ctx, "g", "p0"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.List(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Version(ctx, "g"); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`ibbe_store_ops_total{backend="mem",op="put"} 1`,
		`ibbe_store_ops_total{backend="mem",op="get"} 1`,
		`ibbe_store_ops_total{backend="mem",op="list"} 1`,
		`ibbe_store_ops_total{backend="mem",op="version"} 1`,
		`ibbe_store_op_seconds_count{backend="mem",op="put"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

// TestInstrumentFaultCountersExactlyOnce drives injected CAS conflicts and
// fence rejections through a FaultStore and asserts each rejection bumps
// its counter exactly once — no double counting from retries inside the
// decorator, no missed classifications.
func TestInstrumentFaultCountersExactlyOnce(t *testing.T) {
	ctx := context.Background()
	r := obs.NewRegistry()
	fs := NewFaultStore(NewMemStore(Latency{}))
	st := Instrument(fs, r)

	conflicts := r.CounterVec("ibbe_store_cas_conflicts_total", "", "backend").With("fault")
	fenced := r.CounterVec("ibbe_store_fence_rejections_total", "", "backend").With("fault")

	// Every 2nd PutIf conflicts: of 6 calls, exactly 3 are rejected.
	fs.FailEveryPutIf(2)
	var wantConflicts int64
	for i := 0; i < 6; i++ {
		v, err := st.Version(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutIf(ctx, "g", "p", []byte("x"), v); err != nil {
			if !errors.Is(err, ErrVersionConflict) {
				t.Fatalf("PutIf err = %v", err)
			}
			wantConflicts++
		}
	}
	if wantConflicts != 3 {
		t.Fatalf("injector fired %d times, want 3", wantConflicts)
	}
	if got := conflicts.Value(); got != wantConflicts {
		t.Fatalf("conflict counter = %d, want %d", got, wantConflicts)
	}
	if got := fenced.Value(); got != 0 {
		t.Fatalf("fence counter = %d before any fencing, want 0", got)
	}

	// Every 3rd PutFenced is fenced: of 6 calls, exactly 2 are rejected.
	fs.FailEveryPutIf(0)
	fs.FailEveryPutFenced(3)
	var wantFenced int64
	for i := 0; i < 6; i++ {
		v, err := st.Version(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutFenced(ctx, "g", "p", []byte("x"), v, 5); err != nil {
			if !errors.Is(err, ErrFenced) {
				t.Fatalf("PutFenced err = %v", err)
			}
			wantFenced++
		}
	}
	if wantFenced != 2 {
		t.Fatalf("fence injector fired %d times, want 2", wantFenced)
	}
	if got := fenced.Value(); got != wantFenced {
		t.Fatalf("fence counter = %d, want %d", got, wantFenced)
	}
	if got := conflicts.Value(); got != wantConflicts {
		t.Fatalf("conflict counter moved to %d during fence phase, want %d", got, wantConflicts)
	}
}

func TestInstrumentBackendNames(t *testing.T) {
	mem := NewMemStore(Latency{})
	cases := map[string]Store{
		"mem":   mem,
		"http":  &HTTPStore{},
		"fault": NewFaultStore(mem),
	}
	for want, s := range cases {
		if got := backendName(s); got != want {
			t.Errorf("backendName(%T) = %q, want %q", s, got, want)
		}
	}
}
