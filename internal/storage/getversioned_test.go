package storage

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
)

// versionedBackends covers every Store implementation: MemStore in memory
// and durable, HTTPStore (speaking X-Dir-Version / ?if-version over the
// wire) and FaultStore (delegating with injection disabled).
func versionedBackends(t *testing.T) map[string]Store {
	t.Helper()
	srv := httptest.NewServer(NewServer(NewMemStore(Latency{})))
	t.Cleanup(srv.Close)
	return map[string]Store{
		"mem":   NewMemStore(Latency{}),
		"file":  openDurable(t, t.TempDir()),
		"http":  NewHTTPStore(srv.URL),
		"fault": NewFaultStore(NewMemStore(Latency{})),
	}
}

func TestGetVersionedAllBackends(t *testing.T) {
	for name, st := range versionedBackends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if _, _, err := st.GetVersioned(ctx, "d", "rec"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing object: %v", err)
			}
			if err := st.Put(ctx, "d", "rec", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			data, ver, err := st.GetVersioned(ctx, "d", "rec")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, []byte("v1")) {
				t.Fatalf("data = %q", data)
			}
			want, err := st.Version(ctx, "d")
			if err != nil {
				t.Fatal(err)
			}
			if ver != want {
				t.Fatalf("GetVersioned version = %d, Version() = %d", ver, want)
			}

			// Conditional read at the current version: 304 / ErrNotModified,
			// no data, version still reported.
			data, nmVer, err := GetVersionedIf(ctx, st, "d", "rec", ver)
			if !errors.Is(err, ErrNotModified) {
				t.Fatalf("at current version: err = %v", err)
			}
			if data != nil {
				t.Fatalf("not-modified carried %d bytes", len(data))
			}
			if nmVer != ver {
				t.Fatalf("not-modified version = %d, want %d", nmVer, ver)
			}

			// After a write the same conditional read returns fresh bytes and
			// the advanced version.
			if err := st.Put(ctx, "d", "rec", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			data, ver2, err := GetVersionedIf(ctx, st, "d", "rec", ver)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, []byte("v2")) {
				t.Fatalf("after write: data = %q", data)
			}
			if ver2 <= ver {
				t.Fatalf("version did not advance: %d -> %d", ver, ver2)
			}
		})
	}
}

// TestConditionalGetSavesTransfer pins the point of the 304 path: a
// revalidation at the current version moves no object bytes out of the
// store, across direct and HTTP access.
func TestConditionalGetSavesTransfer(t *testing.T) {
	mem := NewMemStore(Latency{})
	srv := httptest.NewServer(NewServer(mem))
	defer srv.Close()
	hs := NewHTTPStore(srv.URL)
	ctx := context.Background()

	payload := bytes.Repeat([]byte("x"), 4096)
	if err := hs.Put(ctx, "d", "rec", payload); err != nil {
		t.Fatal(err)
	}
	_, ver, err := hs.GetVersioned(ctx, "d", "rec")
	if err != nil {
		t.Fatal(err)
	}
	before := mem.Stats()
	if _, _, err := hs.GetVersionedIf(ctx, "d", "rec", ver); !errors.Is(err, ErrNotModified) {
		t.Fatalf("revalidation: %v", err)
	}
	after := mem.Stats()
	if after.BytesOut != before.BytesOut {
		t.Fatalf("304 moved %d object bytes", after.BytesOut-before.BytesOut)
	}
	if after.Gets != before.Gets {
		t.Fatalf("304 counted %d object gets", after.Gets-before.Gets)
	}
}

func TestFaultStoreFailEveryGet(t *testing.T) {
	fault := NewFaultStore(NewMemStore(Latency{}))
	ctx := context.Background()
	if err := fault.Put(ctx, "d", "rec", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	fault.FailEveryGet(3)
	var injected, ok int
	for i := 0; i < 9; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = fault.Get(ctx, "d", "rec")
		case 1:
			_, _, err = fault.GetVersioned(ctx, "d", "rec")
		default:
			_, _, err = fault.GetVersionedIf(ctx, "d", "rec", 0)
		}
		switch {
		case errors.Is(err, ErrInjected):
			injected++
		case err == nil:
			ok++
		default:
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if injected != 3 || ok != 6 {
		t.Fatalf("injected = %d, ok = %d; want 3 / 6", injected, ok)
	}
	// List/Version/Poll never count toward the object-read injector.
	fault.FailEveryGet(2)
	if _, err := fault.List(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Version(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Get(ctx, "d", "rec"); err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Get(ctx, "d", "rec"); !errors.Is(err, ErrInjected) {
		t.Fatalf("second object read: %v", err)
	}
	fault.FailEveryGet(0)
	if _, err := fault.Get(ctx, "d", "rec"); err != nil {
		t.Fatal(err)
	}
}

// TestSharedGetHeaderConcurrent exercises the shared GET header map from
// many goroutines (run under -race in CI): net/http must never mutate it.
func TestSharedGetHeaderConcurrent(t *testing.T) {
	mem := NewMemStore(Latency{})
	srv := httptest.NewServer(NewServer(mem))
	defer srv.Close()
	hs := NewHTTPStore(srv.URL)
	ctx := context.Background()
	if err := hs.Put(ctx, "d", "rec", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, _, err := hs.GetVersioned(ctx, "d", "rec"); err != nil {
					t.Error(err)
					return
				}
				if _, err := hs.List(ctx, "d"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(getHeader) != 0 {
		t.Fatalf("shared GET header mutated: %v", getHeader)
	}
}
