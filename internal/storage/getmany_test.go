package storage

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestGetManyMatchesGet: the native read and the concurrent fallback hand
// back, name by name, exactly what Get does — missing objects and a missing
// directory included.
func TestGetManyMatchesGet(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore(Latency{})
	for _, name := range []string{"a", "b", "empty"} {
		data := []byte("data-" + name)
		if name == "empty" {
			data = nil
		}
		if err := mem.Put(ctx, "d", name, data); err != nil {
			t.Fatal(err)
		}
	}
	for via, s := range map[string]Store{"native": mem, "concurrent": chainOnly{mem}} {
		for _, dir := range []string{"d", "nowhere"} {
			names := []string{"a", "missing", "empty", "b"}
			data, errs := GetMany(ctx, s, dir, names...)
			for i, name := range names {
				want, wantErr := mem.Get(ctx, dir, name)
				if string(data[i]) != string(want) || errors.Is(errs[i], ErrNotFound) != errors.Is(wantErr, ErrNotFound) || (errs[i] == nil) != (wantErr == nil) {
					t.Fatalf("%s: %s/%s = %q, %v; Get says %q, %v", via, dir, name, data[i], errs[i], want, wantErr)
				}
			}
		}
		if data, errs := GetMany(ctx, s, "d"); len(data) != 0 || len(errs) != 0 {
			t.Fatalf("%s: no names gave %d results", via, len(data))
		}
	}
}

// TestGetManyIsOneRoundTrip: three reads cost one Get latency, natively and
// through the concurrent fallback alike.
func TestGetManyIsOneRoundTrip(t *testing.T) {
	const delay = 30 * time.Millisecond
	ctx := context.Background()
	mem := NewMemStore(Latency{Get: delay})
	names := make([]string, 3)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
		if err := mem.Put(ctx, "d", names[i], []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for via, s := range map[string]Store{"native": mem, "concurrent": chainOnly{mem}} {
		t0 := time.Now()
		_, errs := GetMany(ctx, s, "d", names...)
		took := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if took < delay || took >= time.Duration(len(names))*delay {
			t.Fatalf("%s: %d reads took %v, want about one %v round trip", via, len(names), took, delay)
		}
	}
}
