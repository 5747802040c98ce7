package storage

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"testing"
)

// fencingStore is the conformance contract every backend's PutFenced must
// satisfy: lower-epoch writes rejected with ErrFenced (terminal), the fence
// checked BEFORE the version (a zombie must not mistake its rejection for a
// retryable conflict), equal-or-higher epochs admitted, and epoch 0
// degrading to plain PutIf.
func testFencing(t *testing.T, store Store) {
	t.Helper()
	ctx := context.Background()

	// Epoch 2 writes and raises the watermark.
	if err := store.PutFenced(ctx, "d", "a", []byte("x"), 0, 2); err != nil {
		t.Fatalf("first fenced write: %v", err)
	}
	v, err := store.Version(ctx, "d")
	if err != nil || v == 0 {
		t.Fatalf("version after fenced write: %d, %v", v, err)
	}

	// A lower epoch is fenced out even with the CORRECT version — and even
	// with a wrong version the error is ErrFenced, not ErrVersionConflict.
	if err := store.PutFenced(ctx, "d", "b", []byte("y"), v, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale epoch, right version: %v, want ErrFenced", err)
	}
	if err := store.PutFenced(ctx, "d", "b", []byte("y"), v+7, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale epoch, wrong version: %v, want ErrFenced", err)
	}

	// Same epoch is not fenced; version conflicts still fire.
	if err := store.PutFenced(ctx, "d", "b", []byte("y"), v+7, 2); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("same epoch, wrong version: %v, want ErrVersionConflict", err)
	}
	if err := store.PutFenced(ctx, "d", "b", []byte("y"), v, 2); err != nil {
		t.Fatalf("same epoch, right version: %v", err)
	}

	// A higher epoch advances the watermark, fencing the previous one out.
	v, _ = store.Version(ctx, "d")
	if err := store.PutFenced(ctx, "d", "c", []byte("z"), v, 5); err != nil {
		t.Fatalf("higher epoch: %v", err)
	}
	v, _ = store.Version(ctx, "d")
	if err := store.PutFenced(ctx, "d", "c", []byte("z"), v, 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("previously valid epoch after bump: %v, want ErrFenced", err)
	}

	// Epoch 0 is unfenced PutIf: it neither checks nor raises the watermark.
	if err := store.PutFenced(ctx, "d", "c", []byte("w"), v, 0); err != nil {
		t.Fatalf("epoch-0 write: %v", err)
	}
	v, _ = store.Version(ctx, "d")
	if err := store.PutIf(ctx, "d", "c", []byte("w2"), v); err != nil {
		t.Fatalf("plain PutIf alongside fencing: %v", err)
	}

	// Fencing is per-directory: another directory has its own watermark.
	if err := store.PutFenced(ctx, "other", "a", []byte("x"), 0, 1); err != nil {
		t.Fatalf("fresh directory, epoch 1: %v", err)
	}
}

func TestMemStoreFencing(t *testing.T) {
	testFencing(t, NewMemStore(Latency{}))
}

func TestDurableStoreFencing(t *testing.T) {
	testFencing(t, openDurable(t, t.TempDir()))
}

func TestHTTPStoreFencing(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewMemStore(Latency{})))
	defer srv.Close()
	testFencing(t, NewHTTPStore(srv.URL))
}

func TestFaultStoreFencing(t *testing.T) {
	testFencing(t, NewFaultStore(NewMemStore(Latency{})))
}

// TestDurableFencePersists proves the watermark survives a cloudsim
// restart: a fenced-out epoch stays fenced out after reopening the store.
func TestDurableFencePersists(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	st := openDurable(t, root)
	if err := st.PutFenced(ctx, "d", "a", []byte("x"), 0, 7); err != nil {
		t.Fatal(err)
	}
	st.Close()
	reopened := openDurable(t, root)
	v, _ := reopened.Version(ctx, "d")
	if err := reopened.PutFenced(ctx, "d", "a", []byte("y"), v, 3); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale epoch after reopen: %v, want ErrFenced", err)
	}
	if err := reopened.PutFenced(ctx, "d", "a", []byte("y"), v, 7); err != nil {
		t.Fatalf("current epoch after reopen: %v", err)
	}
	names, err := reopened.List(ctx, "d")
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("listing after reopen: %v, %v", names, err)
	}
}

// TestHTTPStoreFenced412Header pins the wire protocol: both rejections are
// 412, distinguished by the X-Fenced header.
func TestHTTPStoreFenced412Header(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewMemStore(Latency{})))
	defer srv.Close()
	hs := NewHTTPStore(srv.URL)
	ctx := context.Background()
	if err := hs.PutFenced(ctx, "d", "a", []byte("x"), 0, 5); err != nil {
		t.Fatal(err)
	}
	v, _ := hs.Version(ctx, "d")
	if err := hs.PutFenced(ctx, "d", "a", []byte("y"), v, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("fence over HTTP: %v, want ErrFenced", err)
	}
	if err := hs.PutFenced(ctx, "d", "a", []byte("y"), v+9, 5); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("conflict over HTTP: %v, want ErrVersionConflict", err)
	}
}

// TestHTTPStoreFencingFaultRoundTrip drives FaultStore-injected fencing
// faults through the full HTTP protocol: the injected ErrFenced must cross
// the wire as 412+X-Fenced and map back to ErrFenced in the client, while
// replayable request bodies (bytes.Reader + GetBody) keep the PUT intact
// across the round trip.
func TestHTTPStoreFencingFaultRoundTrip(t *testing.T) {
	fault := NewFaultStore(NewMemStore(Latency{}))
	srv := httptest.NewServer(NewServer(fault))
	defer srv.Close()
	hs := NewHTTPStore(srv.URL)
	ctx := context.Background()

	if err := hs.PutFenced(ctx, "d", "a", []byte("x"), 0, 2); err != nil {
		t.Fatal(err)
	}
	v, _ := hs.Version(ctx, "d")

	// Every fenced PUT now trips the injector server-side.
	fault.FailEveryPutFenced(1)
	if err := hs.PutFenced(ctx, "d", "a", []byte("y"), v, 2); !errors.Is(err, ErrFenced) {
		t.Fatalf("injected fence over HTTP: %v, want ErrFenced", err)
	}
	// An injected conflict still crosses as a PLAIN 412 (no X-Fenced).
	fault.FailEveryPutFenced(0)
	fault.FailEveryPutIf(1)
	if err := hs.PutFenced(ctx, "d", "a", []byte("y"), v, 2); !errors.Is(err, ErrVersionConflict) || errors.Is(err, ErrFenced) {
		t.Fatalf("injected conflict over HTTP: %v, want bare ErrVersionConflict", err)
	}
	fault.FailEveryPutIf(0)
	if err := hs.PutFenced(ctx, "d", "a", []byte("z"), v, 2); err != nil {
		t.Fatalf("after disabling injectors: %v", err)
	}
	if got, err := hs.Get(ctx, "d", "a"); err != nil || string(got) != "z" {
		t.Fatalf("payload after fault round-trips: %q, %v", got, err)
	}
}

// TestHTTPStorePutBodyReplayable pins the satellite fix: PUT requests carry
// a replayable body (GetBody set), so the transport can retry on a dead
// reused connection instead of failing the write.
func TestHTTPStorePutBodyReplayable(t *testing.T) {
	hs := NewHTTPStore("http://example.invalid")
	req, err := hs.putRequest(context.Background(), hs.objURL("d", "a"), []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if req.GetBody == nil {
		t.Fatal("PUT request has no GetBody — body not replayable")
	}
	if req.ContentLength != int64(len("payload")) {
		t.Fatalf("ContentLength = %d, want %d", req.ContentLength, len("payload"))
	}
	rc, err := req.GetBody()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(rc)
	if err != nil || string(replay) != "payload" {
		t.Fatalf("replayed body = %q, %v", replay, err)
	}
}

// TestFaultStoreInjectsFence exercises the deterministic zombie-rejection
// injector.
func TestFaultStoreInjectsFence(t *testing.T) {
	fault := NewFaultStore(NewMemStore(Latency{}))
	fault.FailEveryPutFenced(2)
	ctx := context.Background()
	if err := fault.PutFenced(ctx, "d", "a", []byte("x"), 0, 1); err != nil {
		t.Fatalf("1st fenced put: %v", err)
	}
	v, _ := fault.Version(ctx, "d")
	if err := fault.PutFenced(ctx, "d", "a", []byte("y"), v, 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("2nd fenced put: %v, want injected ErrFenced", err)
	}
	fault.FailEveryPutFenced(0)
	if err := fault.PutFenced(ctx, "d", "a", []byte("z"), v, 1); err != nil {
		t.Fatalf("after disabling injector: %v", err)
	}
}
