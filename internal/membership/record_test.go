package membership

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// publish CAS-publishes rec on top of whatever the store holds.
func publish(t testing.TB, store storage.Store, rec *Record) {
	t.Helper()
	_, ver, err := Load(context.Background(), store)
	if err != nil && !errors.Is(err, ErrNoRecord) {
		t.Fatal(err)
	}
	if err := Publish(context.Background(), store, rec, ver); err != nil {
		t.Fatal(err)
	}
}

// TestPublishIsCASAndFenced: a publish conditioned on a stale version
// conflicts, one from an epoch below the record's is fenced, and a
// same-epoch re-publish (targets stamped after boot) is allowed.
func TestPublishIsCASAndFenced(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemStore(storage.Latency{})
	if _, _, err := Load(ctx, store); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("empty store: %v, want ErrNoRecord", err)
	}
	m1, err := New([]string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Publish(ctx, store, RecordOf(m1, nil), 0); err != nil {
		t.Fatal(err)
	}
	if err := Publish(ctx, store, RecordOf(m1, nil), 0); !errors.Is(err, storage.ErrVersionConflict) {
		t.Fatalf("stale version: %v, want ErrVersionConflict", err)
	}
	rec, ver, err := Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	rec.Targets = map[string]string{"a": "http://a", "b": "http://b"}
	if err := Publish(ctx, store, rec, ver); err != nil {
		t.Fatalf("same-epoch re-publish: %v", err)
	}
	m2, err := m1.AddShard("c")
	if err != nil {
		t.Fatal(err)
	}
	publish(t, store, RecordOf(m2, nil))
	_, ver, err = Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := Publish(ctx, store, RecordOf(m1, nil), ver); !errors.Is(err, storage.ErrFenced) {
		t.Fatalf("publish from a superseded epoch: %v, want ErrFenced", err)
	}
	got, _, err := Load(ctx, store)
	if err != nil || got.Epoch != 2 || len(got.Members) != 3 {
		t.Fatalf("record after fenced publish: %+v, %v", got, err)
	}
}

// TestLoadRejectsUntrustedRingSize: a record whose ring would be
// unbounded is refused by Load, before any ring is built.
func TestLoadRejectsUntrustedRingSize(t *testing.T) {
	ctx := context.Background()
	for _, blob := range []string{
		`{"epoch":2,"members":["a","b"],"vnodes":4611686018427387904}`,
		`{"epoch":2,"members":["a","b"],"vnodes":-1}`,
		`{"epoch":2,"members":["a","b"],"vnodes":4097}`,
	} {
		store := storage.NewMemStore(storage.Latency{})
		if err := store.Put(ctx, Dir, Object, []byte(blob)); err != nil {
			t.Fatal(err)
		}
		if rec, _, err := Load(ctx, store); err == nil {
			t.Fatalf("Load accepted %s as %+v", blob, rec)
		}
	}
}

// TestWatchDeliversEveryEpoch: Watch hands over the current record at once
// and each newer one as it is published.
func TestWatchDeliversEveryEpoch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := storage.NewMemStore(storage.Latency{})
	m, err := New([]string{"a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, store, RecordOf(m, nil))
	got := make(chan uint64, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Watch(ctx, store, func(rec *Record) { got <- rec.Epoch })
	}()
	for want := uint64(1); want <= 3; want++ {
		if want > 1 {
			if m, err = m.AddShard(string(rune('a' + want))); err != nil {
				t.Fatal(err)
			}
			publish(t, store, RecordOf(m, nil))
		}
		// Delivery is at-least-once: a repeat of the previous epoch is fine.
		for e := uint64(0); e != want; {
			select {
			case e = <-got:
				if e != want && e != want-1 {
					t.Fatalf("Watch delivered epoch %d, want %d", e, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Watch never delivered epoch %d", want)
			}
		}
	}
	cancel()
	<-done
}

// FuzzLoadRecord: whatever bytes the store returns for the record, Load
// and the ring it admits must reject or work — never panic, never build an
// unbounded ring.
func FuzzLoadRecord(f *testing.F) {
	f.Add([]byte(`{"epoch":1,"members":["shard-0","shard-1"],"targets":{"shard-0":"http://a"}}`))
	f.Add([]byte(`{"epoch":3,"members":["a","b","c"],"vnodes":8}`))
	f.Add([]byte(`{"epoch":2,"members":["a","b"],"vnodes":4611686018427387904}`))
	f.Add([]byte(`{"epoch":2,"members":["a","a"]}`))
	f.Add([]byte(`{"epoch":0,"members":[]}`))
	f.Add([]byte(`not json`))
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, blob []byte) {
		store := storage.NewMemStore(storage.Latency{})
		if err := store.Put(ctx, Dir, Object, blob); err != nil {
			t.Fatal(err)
		}
		rec, _, err := Load(ctx, store)
		if err != nil {
			return
		}
		m, err := rec.Membership()
		if err != nil {
			return
		}
		if m.Epoch != rec.Epoch || len(m.Members()) != len(rec.Members) {
			t.Fatalf("membership %d %v from record %d %v", m.Epoch, m.Members(), rec.Epoch, rec.Members)
		}
		if owner := m.Owner("g"); !m.Has(owner) {
			t.Fatalf("owner %q is not a member", owner)
		}
		NewView(nil).adoptRecord(rec)
	})
}
