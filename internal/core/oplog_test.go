package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// appendN appends n add-user operations.
func appendN(t testing.TB, l *OpLog, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append("admin-1", "g", OpAddUser, fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// An op is hashed into the chain but not signed; the export signs its last
// entry once, and a later export without new ops reuses that signature.
func TestOpLogSignsPerExport(t *testing.T) {
	l, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	e, err := l.Append("admin-1", "g", OpCreateGroup, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Sig) != 0 || e.Hash != e.digest() {
		t.Fatalf("Append returned sig %x, hash ok %v: want an unsigned, hashed entry", e.Sig, e.Hash == e.digest())
	}
	appendN(t, l, 4)
	first := l.Entries()
	for i, e := range first[:len(first)-1] {
		if len(e.Sig) != 0 {
			t.Fatalf("entry %d of a first export is signed", i)
		}
	}
	if err := VerifyChain(first, l.PublicKey()); err != nil {
		t.Fatalf("export rejected: %v", err)
	}
	// The export is a deep copy: scribbling on its signature does not reach
	// the log.
	head := bytes.Clone(first[4].Sig)
	first[4].Sig[0] ^= 0xff
	again := l.Entries()
	if !bytes.Equal(again[4].Sig, head) {
		t.Fatal("second export re-signed the head, or the first export aliased it")
	}
	if err := VerifyChain(again, l.PublicKey()); err != nil {
		t.Fatalf("second export rejected: %v", err)
	}
	// A head that once was signed keeps its signature as the chain grows,
	// and the new head is signed on the next export.
	appendN(t, l, 2)
	grown := l.Entries()
	if !bytes.Equal(grown[4].Sig, head) || len(grown[6].Sig) == 0 || len(grown[5].Sig) != 0 {
		t.Fatal("signatures of a grown export are not the old head's and the new head's")
	}
	if err := VerifyChain(grown, l.PublicKey()); err != nil {
		t.Fatalf("grown export rejected: %v", err)
	}
	// Exporting an empty log signs nothing and certifies nothing.
	empty, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Entries(); len(got) != 0 || VerifyChain(got, empty.PublicKey()) != nil {
		t.Fatalf("empty export: %d entries", len(got))
	}
}

// Dropping the tail of an export leaves an unsigned last entry, which
// verification rejects; a forged or moved signature is rejected too.
func TestOpLogRejectsTruncatedTail(t *testing.T) {
	l, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6)
	entries := l.Entries()
	for cut := 1; cut < len(entries); cut++ {
		if err := VerifyChain(entries[:cut], l.PublicKey()); !errors.Is(err, ErrLogTampered) {
			t.Fatalf("export truncated to %d entries accepted: %v", cut, err)
		}
	}
	moved := append([]LogEntry(nil), entries[:3]...)
	moved[2].Sig = entries[5].Sig
	if err := VerifyChain(moved, l.PublicKey()); !errors.Is(err, ErrLogTampered) {
		t.Fatalf("head signature moved to an earlier entry accepted: %v", err)
	}
	other, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChain(entries, other.PublicKey()); !errors.Is(err, ErrLogTampered) {
		t.Fatalf("export verified under a foreign key: %v", err)
	}
}

// The prefix CheckpointBefore hands out verifies on its own, and the
// retained window keeps verifying from the checkpoint.
func TestOpLogCheckpointPrefixVerifiesAlone(t *testing.T) {
	l, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 9)
	dropped := l.CheckpointBefore(5)
	if len(dropped) != 4 || len(dropped[3].Sig) == 0 {
		t.Fatalf("checkpoint handed out %d entries, head signed %v", len(dropped), len(dropped) == 4 && len(dropped[3].Sig) > 0)
	}
	if err := VerifyChain(dropped, l.PublicKey()); err != nil {
		t.Fatalf("archived prefix rejected: %v", err)
	}
	baseSeq, baseHash := l.Checkpoint()
	if err := VerifyChainFrom(l.Entries(), l.PublicKey(), baseSeq, baseHash); err != nil {
		t.Fatalf("retained window rejected: %v", err)
	}
}

// Appends and exports from many goroutines: every export verifies, and no
// op is lost (run under -race).
func TestOpLogConcurrentAppendAndExport(t *testing.T) {
	l, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append(fmt.Sprintf("admin-%d", w), "g", OpAddUser, "u"); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := VerifyChain(l.Entries(), l.PublicKey()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final := l.Entries()
	if len(final) != writers*perWriter {
		t.Fatalf("%d entries, want %d", len(final), writers*perWriter)
	}
	if err := VerifyChain(final, l.PublicKey()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkOpLogAppend prices what every membership op pays the log: one
// SHA-256 link, no signature.
func BenchmarkOpLogAppend(b *testing.B) {
	l, err := NewOpLog()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := l.Append("admin-1", "g", OpAddUser, "user-0001@bench"); err != nil {
			b.Fatal(err)
		}
	}
}
