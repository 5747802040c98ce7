package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// TestDurableStoreSurvivesRestart: a -data store keeps objects, directory
// versions and fence watermarks across a restart, and commits natively.
func TestDurableStoreSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	st, err := openStore(dataDir, storage.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	var _ storage.Committer = st
	objs := []storage.Object{{Name: "p0", Data: []byte("record")}, {Name: "_key", Data: []byte("key")}}
	if v, err := st.Commit(ctx, "g", objs, 0, 4); err != nil || v != 1 {
		t.Fatalf("commit: version %d, %v", v, err)
	}
	if err := st.PutFenced(ctx, "_leases", "g", []byte("shard-1"), 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = openStore(dataDir, storage.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for dir, want := range map[string]uint64{"g": 1, "_leases": 1, "never-written": 0} {
		if v, err := st.Version(ctx, dir); err != nil || v != want {
			t.Fatalf("%s at version %d after restart (%v), want %d", dir, v, err, want)
		}
	}
	for _, o := range objs {
		if got, err := st.Get(ctx, "g", o.Name); err != nil || string(got) != string(o.Data) {
			t.Fatalf("g/%s after restart: %q, %v", o.Name, got, err)
		}
	}
	if err := st.PutFenced(ctx, "g", "p0", []byte("zombie"), 1, 3); !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("write below the watermark after restart: %v, want ErrFenced", err)
	}
	if err := st.PutFenced(ctx, "_leases", "g", []byte("shard-2"), 1, 2); err != nil {
		t.Fatalf("write at the watermark after restart: %v", err)
	}
}

// TestLatencyFlagsApplyInBothModes: -put-latency, -get-latency and
// -notify-latency shape the durable store exactly as the in-memory one.
func TestLatencyFlagsApplyInBothModes(t *testing.T) {
	lat := storage.Latency{Put: 30 * time.Millisecond, Get: 20 * time.Millisecond, Notify: 40 * time.Millisecond}
	for name, dataDir := range map[string]string{"memory": "", "durable": t.TempDir()} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			st, err := openStore(dataDir, lat)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			t0 := time.Now()
			if err := st.Put(ctx, "d", "a", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(t0); took < lat.Put {
				t.Fatalf("put took %v, want at least %v", took, lat.Put)
			}
			t0 = time.Now()
			if _, err := st.Get(ctx, "d", "a"); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(t0); took < lat.Get {
				t.Fatalf("get took %v, want at least %v", took, lat.Get)
			}

			woke := make(chan time.Time, 1)
			go func() {
				if _, err := st.Poll(ctx, "d", 1); err == nil {
					woke <- time.Now()
				}
			}()
			time.Sleep(10 * time.Millisecond) // let the poller block
			if err := st.Put(ctx, "d", "b", []byte("y")); err != nil {
				t.Fatal(err)
			}
			written := time.Now()
			select {
			case at := <-woke:
				if gap := at.Sub(written); gap < lat.Notify-5*time.Millisecond {
					t.Fatalf("poller woke %v after the write, want about %v", gap, lat.Notify)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("poller never woke")
			}
		})
	}
}
