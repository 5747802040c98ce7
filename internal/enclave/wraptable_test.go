package enclave

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// reset empties the table, as a freshly launched enclave holds it.
func (t *wrapTable) reset() {
	for i := range t.sets {
		s := &t.sets[i]
		s.mu.Lock()
		s.clock, s.used, s.tag = 0, [wrapTableWays]uint64{}, [wrapTableWays]uint64{}
		s.key, s.aead = [wrapTableWays]string{}, [wrapTableWays]*kdf.Sealer{}
		s.mu.Unlock()
	}
}

// cached reports whether a group's handle has an entry.
func (t *wrapTable) cached(group string, handle []byte) bool {
	set, tag := t.set(handle)
	set.mu.Lock()
	defer set.mu.Unlock()
	return set.way(tag, wrapHandleLabel(group), handle) >= 0
}

// fill counts the filled ways and the key bytes they hold.
func (t *wrapTable) fill() (ways, keyBytes int) {
	for i := range t.sets {
		s := &t.sets[i]
		s.mu.Lock()
		for w, k := range s.key {
			if s.used[w] != 0 {
				ways++
				keyBytes += len(k)
				if s.aead[w] == nil {
					panic("a filled way without a cipher")
				}
			}
		}
		s.mu.Unlock()
	}
	return ways, keyBytes
}

// handleWK opens a group's handle the way the miss path does and returns the
// wrap key it seals.
func handleWK(ie *IBBEEnclave, group string, handle []byte) ([kdf.KeySize]byte, error) {
	raw, err := ie.enc.Unseal(handle, wrapHandleLabel(group))
	if err != nil {
		return [kdf.KeySize]byte{}, err
	}
	wk, _, err := ie.splitHandle(raw)
	return wk, err
}

// plainGK unseals a group key the way the ECALLs do.
func plainGK(t *testing.T, ie *IBBEEnclave, group string, sealedGK []byte) [kdf.KeySize]byte {
	t.Helper()
	gk, err := ie.unsealGKLocked(group, sealedGK)
	if err != nil {
		t.Fatal(err)
	}
	return gk
}

// Sweeping half again as many distinct handles as the table holds, twice:
// the table never holds more than its ways, every yᵢ opens under its own
// wrap key, the second sweep finds a share of its handles still cached, and
// a handle whose entry was displaced is unsealed again to the cipher it had.
func TestWrapTableBoundedAndNoThrash(t *testing.T) {
	ie, _, _ := newIBBE(t, 4)
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	gk := plainGK(t, ie, "g", sealedGK)
	n := 3 * wrapTableSets * wrapTableWays / 2
	handles := make([][]byte, n)
	wks := make([][kdf.KeySize]byte, n)
	for i := range handles {
		if wks[i], err = kdf.RandomKey(nil); err != nil {
			t.Fatal(err)
		}
		if handles[i], err = ie.sealHandleLocked("g", wks[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	label := wrapHandleLabel("g")
	maxKey := len(label) + len(handles[0])
	sweep := func() (hits int) {
		for i, h := range handles {
			if ie.wraps.cached("g", h) {
				hits++
			}
			ys, err := ie.EcallRewrapPartitions("g", sealedGK, [][]byte{h})
			if err != nil {
				t.Fatal(err)
			}
			if got, err := UnwrapGKWithKey(wks[i], ys[0], "g"); err != nil || got != gk {
				t.Fatalf("handle %d: yᵢ does not open to the group key under its wrap key: %v", i, err)
			}
		}
		if ways, keyBytes := ie.wraps.fill(); ways > wrapTableSets*wrapTableWays || keyBytes > ways*maxKey {
			t.Fatalf("table holds %d ways and %d key bytes, bound %d ways of ≤ %d bytes", ways, keyBytes, wrapTableSets*wrapTableWays, maxKey)
		}
		return hits
	}
	if hits := sweep(); hits != 0 {
		t.Fatalf("first sweep over fresh handles hit %d times", hits)
	}
	hits := sweep()
	if hits == 0 {
		t.Fatal("second sweep hit nothing: the table thrashes")
	}
	t.Logf("second sweep hit %d of %d handles (%.0f %%) in a %d-entry table", hits, n, 100*float64(hits)/float64(n), wrapTableSets*wrapTableWays)

	displaced := -1
	for i, h := range handles {
		if !ie.wraps.cached("g", h) {
			displaced = i
			break
		}
	}
	if displaced < 0 {
		t.Fatalf("%d handles all cached in %d ways", n, wrapTableSets*wrapTableWays)
	}
	ref, err := kdf.NewSealer(wks[displaced])
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, kdf.NonceSize)
	aad := wrapAAD("g")
	want := ref.SealNonce(nil, nonce, gk[:], aad)
	for _, path := range []string{"miss", "hit"} {
		aead, err := ie.wrapCipherLocked(label, handles[displaced])
		if err != nil {
			t.Fatal(err)
		}
		if got := aead.SealNonce(nil, nonce, gk[:], aad); !bytes.Equal(got, want) {
			t.Fatalf("displaced handle on the %s path seals other bytes than its wrap key", path)
		}
		if !ie.wraps.cached("g", handles[displaced]) {
			t.Fatalf("displaced handle not cached after the %s path", path)
		}
	}
}

// Eight goroutines re-wrap and re-key the partitions of four groups
// interleaved, all through one enclave's table: every yᵢ opens under its own
// partition's wrap key and under no other partition's.
func TestRewrapConcurrent(t *testing.T) {
	ie, _, _ := newIBBE(t, 4)
	const groups, parts, workers, rounds = 4, 3, 8, 16
	type group struct {
		name string
		mu   sync.Mutex
		gk   []byte
		hs   [][]byte
	}
	gs := make([]*group, groups)
	for g := range gs {
		name := fmt.Sprintf("group-%d", g)
		roster := members(2 * parts)
		sealedGK, outs := createGroup(t, ie, name, [][]string{roster[:2], roster[2:4], roster[4:]})
		gs[g] = &group{name: name, gk: sealedGK}
		for _, pc := range outs {
			gs[g].hs = append(gs[g].hs, pc.WrapHandle)
		}
	}
	snapshot := func(g *group) ([]byte, [][]byte) {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.gk, append([][]byte(nil), g.hs...)
	}
	// check opens y under every partition's current wrap key, in y's group's
	// associated data: only the handle it was wrapped for may open it.
	check := func(g *group, own []byte, gk [kdf.KeySize]byte, y []byte) error {
		ownWK, err := handleWK(ie, g.name, own)
		if err != nil {
			return err
		}
		if got, err := UnwrapGKWithKey(ownWK, y, g.name); err != nil || got != gk {
			return fmt.Errorf("%s: yᵢ does not open under its own wrap key: %v", g.name, err)
		}
		for _, o := range gs {
			_, hs := snapshot(o)
			for _, h := range hs {
				wk, err := handleWK(ie, o.name, h)
				if err != nil {
					return err
				}
				if wk == ownWK {
					continue
				}
				if _, err := UnwrapGKWithKey(wk, y, g.name); err == nil {
					return fmt.Errorf("%s: yᵢ opens under a partition of %s", g.name, o.name)
				}
			}
		}
		return nil
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				g := gs[(w+r)%groups]
				sealedGK, hs := snapshot(g)
				if (w+r)%3 == 0 {
					i := (w + r) % parts
					pc, err := ie.EcallRekeyWithHandle(g.name, sealedGK, hs[i], nil)
					if err != nil {
						errs <- err
						return
					}
					g.mu.Lock()
					g.hs[i] = pc.WrapHandle
					g.mu.Unlock()
					continue
				}
				newGK, err := ie.EcallNewGroupKey(g.name)
				if err != nil {
					errs <- err
					return
				}
				ys, err := ie.EcallRewrapPartitions(g.name, newGK, hs)
				if err != nil {
					errs <- err
					return
				}
				gk, err := ie.unsealGKLocked(g.name, newGK)
				if err != nil {
					errs <- err
					return
				}
				for i, y := range ys {
					if err := check(g, hs[i], gk, y); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkRewrapPartitions re-wraps a paged benchmark group's 127 untouched
// partitions at paper parameters: cold empties the table before each call
// (untimed), so every handle is unsealed and its cipher built; warm finds
// every handle cached.
func BenchmarkRewrapPartitions(b *testing.B) {
	p, err := NewPlatform("bench-platform", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ie, err := NewIBBEEnclave(p, pairing.TypeA512())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := ie.EcallSetup(2); err != nil {
		b.Fatal(err)
	}
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		b.Fatal(err)
	}
	handles := make([][]byte, 127)
	for i := range handles {
		pc, err := ie.EcallCreatePartition("g", sealedGK, []string{fmt.Sprintf("member-%03d@example.com", i)})
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = pc.WrapHandle
	}
	for _, cold := range []bool{true, false} {
		name := map[bool]string{true: "cold", false: "warm"}[cold]
		b.Run(name, func(b *testing.B) {
			if _, err := ie.EcallRewrapPartitions("g", sealedGK, handles); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					ie.wraps.reset()
					b.StartTimer()
				}
				if _, err := ie.EcallRewrapPartitions("g", sealedGK, handles); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
