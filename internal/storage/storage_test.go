package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// backends returns each Store implementation under a name, for table tests:
// the in-memory store, the durable one ("file") and HTTP in front of memory.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	mem := NewMemStore(Latency{})
	srv := httptest.NewServer(NewServer(NewMemStore(Latency{})))
	t.Cleanup(srv.Close)
	return map[string]Store{
		"mem":  mem,
		"file": openDurable(t, t.TempDir()),
		"http": NewHTTPStore(srv.URL),
	}
}

// openDurable opens the durable store in dir, closed when the test ends.
func openDurable(t testing.TB, dir string) *MemStore {
	t.Helper()
	m, err := OpenMemStore(dir, Latency{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if err := st.Put(ctx, "group-a", "p1", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(ctx, "group-a", "p1")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("Get = %q", got)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if _, err := st.Get(ctx, "nodir", "nofile"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing dir: %v", err)
			}
			if err := st.Put(ctx, "d", "x", []byte("1")); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(ctx, "d", "nofile"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing object: %v", err)
			}
		})
	}
}

func TestPutOverwrites(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if err := st.Put(ctx, "d", "x", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(ctx, "d", "x", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(ctx, "d", "x")
			if err != nil || string(got) != "v2" {
				t.Fatalf("Get = %q, %v", got, err)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if err := st.Put(ctx, "d", "x", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete(ctx, "d", "x"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(ctx, "d", "x"); !errors.Is(err, ErrNotFound) {
				t.Fatal("deleted object still readable")
			}
			if err := st.Delete(ctx, "d", "x"); !errors.Is(err, ErrNotFound) {
				t.Fatal("double delete accepted")
			}
		})
	}
}

func TestListSorted(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			for _, n := range []string{"p3", "p1", "p2"} {
				if err := st.Put(ctx, "g", n, []byte(n)); err != nil {
					t.Fatal(err)
				}
			}
			names, err := st.List(ctx, "g")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"p1", "p2", "p3"}
			if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
				t.Fatalf("List = %v", names)
			}
			if _, err := st.List(ctx, "missing"); !errors.Is(err, ErrNotFound) {
				t.Fatal("listing a missing dir succeeded")
			}
		})
	}
}

func TestVersionMonotonic(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			v0, err := st.Version(ctx, "g")
			if err != nil || v0 != 0 {
				t.Fatalf("fresh dir version = %d, %v", v0, err)
			}
			_ = st.Put(ctx, "g", "a", []byte("1"))
			v1, _ := st.Version(ctx, "g")
			_ = st.Put(ctx, "g", "b", []byte("2"))
			_ = st.Delete(ctx, "g", "a")
			v2, _ := st.Version(ctx, "g")
			if !(v0 < v1 && v1 < v2) {
				t.Fatalf("versions not monotonic: %d %d %d", v0, v1, v2)
			}
		})
	}
}

func TestPollWakesOnChange(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start, _ := st.Version(ctx, "g")

			var (
				wg      sync.WaitGroup
				gotV    uint64
				pollErr error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				gotV, pollErr = st.Poll(ctx, "g", start)
			}()
			time.Sleep(50 * time.Millisecond) // let the poller arm
			if err := st.Put(ctx, "g", "p1", []byte("x")); err != nil {
				t.Error(err)
			}
			wg.Wait()
			if pollErr != nil {
				t.Fatalf("Poll: %v", pollErr)
			}
			if gotV <= start {
				t.Fatalf("Poll returned stale version %d", gotV)
			}
		})
	}
}

func TestPollReturnsImmediatelyWhenBehind(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if err := st.Put(ctx, "g", "p1", []byte("x")); err != nil {
				t.Fatal(err)
			}
			v, err := st.Poll(ctx, "g", 0)
			if err != nil || v == 0 {
				t.Fatalf("Poll(0) = %d, %v", v, err)
			}
		})
	}
}

func TestPollHonoursContextCancel(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := st.Poll(ctx, "g", 99)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Poll after cancel: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Poll did not return after cancel")
			}
		})
	}
}

// TestPollUnknownDirCreatesNothing: a poll of a name nobody wrote neither
// creates the directory nor leaves its wait entry behind once it ends, so
// remote polls cannot grow the store.
func TestPollUnknownDirCreatesNothing(t *testing.T) {
	st := NewMemStore(Latency{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := st.Poll(ctx, "never-written", 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Poll of an unknown directory: %v", err)
	}
	if _, err := st.List(context.Background(), "never-written"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("List after the poll: %v, want ErrNotFound", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.dirs) != 0 || len(st.waiters) != 0 {
		t.Fatalf("a poll left %d directories and %d wait entries", len(st.dirs), len(st.waiters))
	}
}

func TestHTTPPollRearmsAcrossServerTimeouts(t *testing.T) {
	mem := NewMemStore(Latency{})
	srv := NewServer(mem)
	srv.PollTimeout = 50 * time.Millisecond // force several empty rounds
	ts := httptest.NewServer(srv)
	defer ts.Close()
	hs := NewHTTPStore(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan uint64, 1)
	go func() {
		v, err := hs.Poll(ctx, "g", 0)
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	time.Sleep(200 * time.Millisecond) // at least two empty poll rounds
	if err := mem.Put(ctx, "g", "p", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v == 0 {
			t.Fatal("poll returned zero version")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long poll never woke")
	}
}

func TestMemStoreLatencyInjection(t *testing.T) {
	st := NewMemStore(Latency{Put: 30 * time.Millisecond, Get: 20 * time.Millisecond})
	ctx := context.Background()
	start := time.Now()
	if err := st.Put(ctx, "d", "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("Put returned in %v, expected ≥ 30ms", elapsed)
	}
	start = time.Now()
	if _, err := st.Get(ctx, "d", "x"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("Get returned in %v, expected ≥ 20ms", elapsed)
	}
}

func TestMemStoreLatencyRespectsCancel(t *testing.T) {
	st := NewMemStore(Latency{Put: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := st.Put(ctx, "d", "x", []byte("v")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Put under dead context: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	st := NewMemStore(Latency{})
	ctx := context.Background()
	_ = st.Put(ctx, "d", "x", make([]byte, 100))
	_, _ = st.Get(ctx, "d", "x")
	_, _ = st.Get(ctx, "d", "x")
	_ = st.Delete(ctx, "d", "x")
	s := st.Stats()
	if s.Puts != 1 || s.Gets != 2 || s.Deletes != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.BytesIn != 100 || s.BytesOut != 200 {
		t.Fatalf("bytes = %+v", s)
	}
}

func TestMemStoreIsolationFromCallerMutation(t *testing.T) {
	st := NewMemStore(Latency{})
	ctx := context.Background()
	data := []byte("original")
	_ = st.Put(ctx, "d", "x", data)
	data[0] = 'X'
	got, _ := st.Get(ctx, "d", "x")
	if string(got) != "original" {
		t.Fatal("store shares storage with caller slices")
	}
	got[0] = 'Y'
	got2, _ := st.Get(ctx, "d", "x")
	if string(got2) != "original" {
		t.Fatal("store leaked internal slice")
	}
}

func TestConcurrentPutsAndPolls(t *testing.T) {
	st := NewMemStore(Latency{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const writers = 8
	var wg sync.WaitGroup
	// Pollers chase the version; each must observe the final version.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var since uint64
			for since < writers {
				v, err := st.Poll(ctx, "g", since)
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				since = v
			}
		}()
	}
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Put(ctx, "g", fmt.Sprintf("p%d", i), []byte("x")); err != nil {
				t.Errorf("put: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestHTTPStoreEscapesPaths(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewMemStore(Latency{})))
	defer srv.Close()
	hs := NewHTTPStore(srv.URL)
	ctx := context.Background()
	dir, name := "group with spaces/and-slash", "partition#1?x=y"
	if err := hs.Put(ctx, dir, name, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := hs.Get(ctx, dir, name)
	if err != nil || string(got) != "v" {
		t.Fatalf("escaped round trip: %q %v", got, err)
	}
	names, err := hs.List(ctx, dir)
	if err != nil || len(names) != 1 || names[0] != name {
		t.Fatalf("escaped list: %v %v", names, err)
	}
}

func TestServerRejectsMalformedPaths(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewMemStore(Latency{})))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/obj/only-dir")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed path: %d", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown route: %d", resp.StatusCode)
	}
}

func TestPutIfAllBackends(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			// Create at version 0, then a stale CAS must conflict and leave
			// the winner's data untouched.
			if err := st.PutIf(ctx, "g", "p", []byte("winner"), 0); err != nil {
				t.Fatalf("PutIf at 0: %v", err)
			}
			if err := st.PutIf(ctx, "g", "p", []byte("loser"), 0); !errors.Is(err, ErrVersionConflict) {
				t.Fatalf("stale PutIf: %v", err)
			}
			got, err := st.Get(ctx, "g", "p")
			if err != nil || string(got) != "winner" {
				t.Fatalf("after conflict: %q %v", got, err)
			}
			// CAS at the observed version succeeds and bumps like Put.
			v, err := st.Version(ctx, "g")
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutIf(ctx, "g", "p2", []byte("x"), v); err != nil {
				t.Fatalf("PutIf at %d: %v", v, err)
			}
			v2, _ := st.Version(ctx, "g")
			if v2 != v+1 {
				t.Fatalf("PutIf bumped %d → %d", v, v2)
			}
			// Unconditional mutations still interleave with CAS expectations.
			if err := st.Put(ctx, "g", "p3", []byte("y")); err != nil {
				t.Fatal(err)
			}
			if err := st.PutIf(ctx, "g", "p", []byte("late"), v2); !errors.Is(err, ErrVersionConflict) {
				t.Fatalf("CAS after unconditional put: %v", err)
			}
		})
	}
}

func TestPutIfSingleWinnerUnderRace(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			const racers = 8
			var (
				wg   sync.WaitGroup
				mu   sync.Mutex
				wins int
			)
			for i := 0; i < racers; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := st.PutIf(ctx, "race", "obj", []byte(fmt.Sprintf("w%d", i)), 0)
					if err == nil {
						mu.Lock()
						wins++
						mu.Unlock()
					} else if !errors.Is(err, ErrVersionConflict) {
						t.Errorf("racer %d: %v", i, err)
					}
				}()
			}
			wg.Wait()
			if wins != 1 {
				t.Fatalf("CAS winners = %d, want exactly 1", wins)
			}
		})
	}
}
