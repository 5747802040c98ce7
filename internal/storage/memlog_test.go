package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// state is the store's whole content — every directory's objects, version
// and fence watermark — in its canonical encoding, the snapshot.
func state(m *MemStore) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendSnapshot(nil)
}

func reopen(t *testing.T, m *MemStore, dir string) *MemStore {
	t.Helper()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return openDurable(t, dir)
}

// TestDurableReopenEveryStep runs one sequence of writes — accepted and
// rejected, plain, conditional, fenced and committed — against an in-memory
// twin and against the durable store, closing and reopening the durable one
// after every step: both must answer every step alike and hold the same
// objects, versions and watermarks throughout.
func TestDurableReopenEveryStep(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	twin, durable := NewMemStore(Latency{}), openDurable(t, dir)
	steps := []func(s *MemStore) error{
		func(s *MemStore) error { return s.Put(ctx, "g", "a", []byte("1")) },
		func(s *MemStore) error { return s.PutFenced(ctx, "g", "b", []byte("2"), 1, 4) },
		func(s *MemStore) error { return s.PutFenced(ctx, "g", "b", []byte("x"), 2, 3) }, // fenced
		func(s *MemStore) error { return s.PutIf(ctx, "g", "b", []byte("x"), 1) },        // stale
		func(s *MemStore) error {
			_, err := s.Commit(ctx, "g", []Object{put("c", "3"), del("a"), del("nope")}, 2, 4)
			return err
		},
		func(s *MemStore) error {
			_, err := s.Commit(ctx, "g", []Object{put("c", "x")}, 9, 9) // conflict: watermark stays 4
			return err
		},
		func(s *MemStore) error { return s.Delete(ctx, "g", "b") },
		func(s *MemStore) error { return s.Delete(ctx, "g", "b") }, // missing
		func(s *MemStore) error { return s.PutFenced(ctx, "lease", "l", []byte("owner"), 0, 2) },
		func(s *MemStore) error { return s.Delete(ctx, "g", "c") }, // g left empty, still versioned
		func(s *MemStore) error { return s.PutFenced(ctx, "g", "d", []byte("4"), 5, 4) },
	}
	for i, step := range steps {
		want, got := step(twin), step(durable)
		if outcome(want) != outcome(got) {
			t.Fatalf("step %d: in memory %v, durable %v", i, want, got)
		}
		durable = reopen(t, durable, dir)
		if !bytes.Equal(state(durable), state(twin)) {
			t.Fatalf("step %d: reopened store differs from the in-memory one", i)
		}
	}
	if v, _ := durable.Version(ctx, "g"); v != 6 {
		t.Fatalf("g at version %d after the sequence, want 6", v)
	}
}

// TestDurableCommitBehindServer: through HTTP, one multi-object commit moves
// the durable directory by exactly one version, and a fenced or stale commit
// changes no object, no version and no watermark — in memory or on disk.
func TestDurableCommitBehindServer(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openDurable(t, dir)
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	hs := NewHTTPStore(srv.URL)

	v, err := hs.Commit(ctx, "g", []Object{put("p0", "r0"), put("p1", "r1"), put("_key", "k1")}, 0, 3)
	if err != nil || v != 1 {
		t.Fatalf("create commit: version %d, %v", v, err)
	}
	if v, err = hs.Commit(ctx, "g", []Object{put("p0", "r0'"), del("p1"), put("_key", "k2")}, 1, 3); err != nil || v != 2 {
		t.Fatalf("update commit: version %d, %v", v, err)
	}
	if cur, _ := st.Version(ctx, "g"); cur != 2 {
		t.Fatalf("store at version %d after two commits", cur)
	}
	want := state(st)
	for _, c := range []struct {
		ifVersion, epoch uint64
		err              error
	}{
		{1, 3, ErrVersionConflict}, // stale
		{2, 2, ErrFenced},          // fenced
		{7, 9, ErrVersionConflict}, // stale with a higher epoch: the watermark must not rise
	} {
		_, err := hs.Commit(ctx, "g", []Object{put("p0", "zombie"), del("_key")}, c.ifVersion, c.epoch)
		if !errors.Is(err, c.err) {
			t.Fatalf("commit at %d epoch %d: %v, want %v", c.ifVersion, c.epoch, err, c.err)
		}
		if !bytes.Equal(state(st), want) {
			t.Fatalf("rejected commit at %d epoch %d changed the store", c.ifVersion, c.epoch)
		}
	}
	if !bytes.Equal(state(reopen(t, st, dir)), want) {
		t.Fatal("reopened store differs from the acknowledged state")
	}
}

// logAfter opens a fresh durable store in dir, runs writes, and returns the
// log image together with the store's state and log size before the last
// write.
func logAfter(t *testing.T, dir string, writes ...func(*MemStore) error) (log, prevState []byte, prevSize int64) {
	t.Helper()
	st := openDurable(t, dir)
	for _, w := range writes {
		prevState, prevSize = state(st), st.log.size
		if err := w(st); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return log, prevState, prevSize
}

func someWrites(ctx context.Context) []func(*MemStore) error {
	return []func(*MemStore) error{
		func(s *MemStore) error { return s.PutFenced(ctx, "g", "a", []byte("first"), 0, 2) },
		func(s *MemStore) error { return s.Put(ctx, "h", "b", []byte("other")) },
		func(s *MemStore) error {
			_, err := s.Commit(ctx, "g", []Object{put("a", "second"), put("k", "key")}, 1, 5)
			return err
		},
		func(s *MemStore) error {
			_, err := s.Commit(ctx, "g", []Object{del("a"), put("k", "last key"), put("c", "last")}, 2, 6)
			return err
		},
	}
}

// TestDurableTornTailOpensAtPreviousRecord: a crash can cut the log
// anywhere inside the record being appended; whatever the cut, the reopened
// store holds exactly the state before that record.
func TestDurableTornTailOpensAtPreviousRecord(t *testing.T) {
	ctx := context.Background()
	log, prev, prevSize := logAfter(t, t.TempDir(), someWrites(ctx)...)
	if prevSize >= int64(len(log)) {
		t.Fatal("the last write appended nothing")
	}
	cut := t.TempDir()
	for n := prevSize; n < int64(len(log)); n++ {
		if err := os.WriteFile(filepath.Join(cut, logName), log[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenMemStore(cut, Latency{})
		if err != nil {
			t.Fatalf("log cut at %d of %d: %v", n, len(log), err)
		}
		got := state(st)
		st.Close()
		if !bytes.Equal(got, prev) {
			t.Fatalf("log cut at %d of %d: not the state before the last record", n, len(log))
		}
	}
}

// TestDurableCorruptRecordFailsOpen: a flipped bit anywhere in the log —
// the magic, a record header, a payload — fails the open. It never drops
// the records after it, which would reopen at a lower version or a lower
// fence watermark.
func TestDurableCorruptRecordFailsOpen(t *testing.T) {
	ctx := context.Background()
	log, _, _ := logAfter(t, t.TempDir(), someWrites(ctx)...)
	bad := t.TempDir()
	for i := range log {
		flipped := bytes.Clone(log)
		flipped[i] ^= 0x10
		if err := os.WriteFile(filepath.Join(bad, logName), flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := OpenMemStore(bad, Latency{}); err == nil {
			v, _ := st.Version(ctx, "g")
			st.Close()
			t.Fatalf("log with byte %d of %d flipped opened (g at version %d)", i, len(log), v)
		}
	}
}

// TestDurableCompactionBoundsLog: commits that keep rewriting the same
// objects grow the log, compaction keeps it within compactFactor snapshots
// of the live state, the live-size accounting matches a fresh snapshot
// after every write, and a reopen gives the same state from a log holding
// nothing but the snapshot.
func TestDurableCompactionBoundsLog(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openDurable(t, dir)
	compactions, v := 0, uint64(0)
	for i := 0; i < 200; i++ {
		objs := []Object{
			{Name: "p0", Data: bytes.Repeat([]byte{byte(i)}, 100+i)},
			put("_key", fmt.Sprint(i)),
		}
		if i%7 == 0 {
			objs = append(objs, del("p1"), put("p2", strings.Repeat("x", i)))
		} else {
			objs = append(objs, put("p1", "y"))
		}
		before := st.log.size
		var err error
		if v, err = st.Commit(ctx, "g", objs, v, 1); err != nil {
			t.Fatal(err)
		}
		if st.log.size < before {
			compactions++
		}
		if got := int64(len(state(st))); st.log.live != got {
			t.Fatalf("commit %d: live accounted as %d bytes, a snapshot takes %d", i, st.log.live, got)
		}
		if st.log.size > compactFactor*st.log.live {
			t.Fatalf("commit %d: log at %d bytes, live %d", i, st.log.size, st.log.live)
		}
		if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != st.log.size {
			t.Fatalf("commit %d: log file %v, %v; accounted %d bytes", i, fi, err, st.log.size)
		}
	}
	if compactions == 0 {
		t.Fatal("200 rewrites never compacted the log")
	}
	want := state(st)
	st = reopen(t, st, dir)
	if !bytes.Equal(state(st), want) {
		t.Fatal("reopened store differs")
	}
	if st.log.size != int64(len(want)) {
		t.Fatalf("reopened log is %d bytes, the snapshot %d", st.log.size, len(want))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != logName {
		t.Fatalf("data directory holds %v, want only the log", entries)
	}
}

// TestDurableOddNames: directory and object names are bytes to the log —
// slashes, dots, NULs, the empty name and long names come back as written.
func TestDurableOddNames(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	st := openDurable(t, root)
	long := strings.Repeat("n", 300)
	pairs := [][2]string{
		{"group/with/slashes", "partition .. / % weird"},
		{"group/with/slashes", ""},
		{"", "\x00nul"},
		{"ünïcødé", long},
	}
	for _, p := range pairs {
		if err := st.Put(ctx, p[0], p[1], []byte(p[0]+"|"+p[1])); err != nil {
			t.Fatal(err)
		}
	}
	st = reopen(t, st, root)
	for _, p := range pairs {
		got, err := st.Get(ctx, p[0], p[1])
		if err != nil || string(got) != p[0]+"|"+p[1] {
			t.Fatalf("%q/%q after reopen: %q, %v", p[0], p[1], got, err)
		}
	}
	names, err := st.List(ctx, "group/with/slashes")
	if err != nil || len(names) != 2 || names[0] != "" || names[1] != "partition .. / % weird" {
		t.Fatalf("List after reopen: %q, %v", names, err)
	}
}

// TestDurableFailedAppendChangesNothing: a write whose log append fails is
// not applied — no object, no version, no watermark — and the store refuses
// later writes until it is reopened, at the last acknowledged state.
func TestDurableFailedAppendChangesNothing(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openDurable(t, dir)
	if err := st.PutFenced(ctx, "d", "a", []byte("kept"), 0, 2); err != nil {
		t.Fatal(err)
	}
	want := state(st)
	st.mu.Lock()
	st.log.f.Close() // the disk goes away under the store
	st.mu.Unlock()
	if _, err := st.Commit(ctx, "d", []Object{put("a", "lost"), put("b", "lost")}, 1, 5); err == nil {
		t.Fatal("commit acknowledged without a log append")
	}
	if err := st.Put(ctx, "d", "c", []byte("lost")); err == nil {
		t.Fatal("put acknowledged after a failed append")
	}
	if !bytes.Equal(state(st), want) {
		t.Fatal("a write whose append failed changed the store")
	}
	st.Close() // reports the close above again
	if !bytes.Equal(state(openDurable(t, dir)), want) {
		t.Fatal("reopened store differs from the acknowledged state")
	}
}

// FuzzOpenMemStoreLog feeds the replay OpenMemStore runs over the bytes of
// its log arbitrary input: it must reject it, or yield a store whose
// snapshot — the log a compaction writes — replays to the same state. It
// must never panic or size an allocation from an unchecked length. Each
// input is tried twice: as a log, and cut into payloads (a length byte
// before each) under valid headers, so that record decoding is explored
// past the checksums.
func FuzzOpenMemStoreLog(f *testing.F) {
	ctx := context.Background()
	dir := f.TempDir()
	st, err := OpenMemStore(dir, Latency{})
	if err != nil {
		f.Fatal(err)
	}
	for _, w := range someWrites(ctx) {
		if err := w(st); err != nil {
			f.Fatal(err)
		}
	}
	st.Close()
	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(state(st))
	f.Add(logMagic)
	f.Add([]byte("not a log"))
	f.Add([]byte("\x09\x01g\x01\x02\x00\x01a\x01x\x07\x01g\x02\x02\x01\x01a")) // put g/a, then delete it
	f.Fuzz(func(t *testing.T, raw []byte) {
		framed := bytes.Clone(logMagic)
		for chunk := raw; len(chunk) > 0; {
			n := min(int(chunk[0]), len(chunk)-1)
			start := len(framed)
			framed = append(append(framed, make([]byte, logHeaderLen)...), chunk[1:1+n]...)
			sealRecord(framed[start:])
			chunk = chunk[1+n:]
		}
		for _, log := range [][]byte{raw, framed} {
			m := NewMemStore(Latency{})
			if err := m.replay(log); err != nil {
				continue
			}
			snap := state(m)
			again := NewMemStore(Latency{})
			if err := again.replay(snap); err != nil {
				t.Fatalf("the snapshot of an accepted log does not replay: %v", err)
			}
			if !bytes.Equal(state(again), snap) {
				t.Fatal("the snapshot replays to a different state")
			}
		}
	})
}
