package enclave

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"github.com/ibbesgx/ibbesgx/internal/kdf"
)

// The re-wrap cipher table is 128 sets of eight ways, 1 024 built wrap
// ciphers in a fixed table. A revocation re-wraps every partition that lost
// nobody, and those partitions' handles are byte-identical from one
// revocation to the next; the table lets the re-wrap skip the handle's unseal
// and the AES-256-GCM build (key expansion plus GCM set-up) for a handle it
// has opened before. A handle can live only in the set its seeded hash picks,
// and a miss overwrites the set's least recently used way. Eight ways, not
// two: a sweep visits its handles in the same order every time, so a set
// holding more live handles than ways misses on all of them, and at the
// paged benchmark's 256 live handles two-way sets lost about six handles per
// revocation that way. A displaced or re-sealed handle costs what every
// handle cost without the table: one unseal and one cipher build.
const (
	wrapTableSets = 128
	wrapTableWays = 8
)

// wrapTable maps (seal label, full handle bytes) to the wrap cipher built
// from the wrap key that handle seals. An entry goes in only after that exact
// handle opened under that label to a well-formed wrap key, or the enclave
// itself sealed it under that label over a wrap key it had just derived or
// opened, and a lookup compares the full key bytes, so a hit hands out only a cipher the
// unseal itself would have built: a tampered, truncated or relabelled handle
// never matches and takes the unseal, which refuses it.
type wrapTable struct {
	sets [wrapTableSets]wrapSet
	seed maphash.Seed

	// hits and misses count the re-wrap lookups served from the table and
	// those that unsealed (see WrapTableStats).
	hits, misses atomic.Uint64
}

// wrapSet is one set of the table: eight ways, each a key (seal label ‖
// handle) and its cipher, under one lock.
type wrapSet struct {
	mu    sync.Mutex
	clock uint64                // counts the set's hits and fills
	used  [wrapTableWays]uint64 // the clock at a way's last hit or fill; 0 marks an empty way
	tag   [wrapTableWays]uint64
	key   [wrapTableWays]string
	aead  [wrapTableWays]*kdf.Sealer
}

func newWrapTable() *wrapTable { return &wrapTable{seed: maphash.MakeSeed()} }

// set returns the set a handle lives in and the handle's seeded hash. The
// label is left out of the hash: the handle's sealing nonce already spreads
// handles evenly, and the full-key compare tells the labels apart.
func (t *wrapTable) set(handle []byte) (*wrapSet, uint64) {
	tag := maphash.Bytes(t.seed, handle)
	return &t.sets[tag%wrapTableSets], tag
}

// way reports the way that holds key label ‖ handle, or -1. Callers hold mu.
func (s *wrapSet) way(tag uint64, label, handle []byte) int {
	for w, k := range s.key {
		if s.used[w] != 0 && s.tag[w] == tag && len(k) == len(label)+len(handle) &&
			k[:len(label)] == string(label) && k[len(label):] == string(handle) {
			return w
		}
	}
	return -1
}

// touch marks way w as the set's most recently used. Callers hold mu.
func (s *wrapSet) touch(w int) {
	s.clock++
	s.used[w] = s.clock
}

// get returns the cipher cached for label ‖ handle, or nil. touch marks a
// hit as the set's most recently used way; a lookup of a handle about to go
// out of use leaves the way to age.
func (s *wrapSet) get(tag uint64, label, handle []byte, touch bool) *kdf.Sealer {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.way(tag, label, handle)
	if w < 0 {
		return nil
	}
	if touch {
		s.touch(w)
	}
	return s.aead[w]
}

// put caches aead for label ‖ handle in the set's least recently used (or
// an empty) way, unless a concurrent miss on the same handle filled it
// first.
func (s *wrapSet) put(tag uint64, label, handle []byte, aead *kdf.Sealer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.way(tag, label, handle)
	if w < 0 {
		w = 0
		for v := range s.used {
			if s.used[v] < s.used[w] {
				w = v
			}
		}
		s.tag[w], s.key[w], s.aead[w] = tag, string(label)+string(handle), aead
	}
	s.touch(w)
}

// wrapCipherLocked returns the wrap cipher of a re-wrap handle sealed under
// label: from the table when this exact handle has opened under label
// before, else by unsealing it, checking its length and building the cipher
// for its wrap key, which then goes into the table. A handle that does not
// open fails with ErrBadHandle, cached or not.
func (ie *IBBEEnclave) wrapCipherLocked(label, handle []byte) (*kdf.Sealer, error) {
	set, tag := ie.wraps.set(handle)
	if aead := set.get(tag, label, handle, true); aead != nil {
		ie.wraps.hits.Add(1)
		return aead, nil
	}
	ie.wraps.misses.Add(1)
	raw, err := ie.enc.Unseal(handle, label)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadHandle, err)
	}
	wk, _, err := ie.splitHandle(raw)
	if err != nil {
		return nil, err
	}
	aead, err := kdf.NewSealer(wk)
	if err != nil {
		return nil, err
	}
	set.put(tag, label, handle, aead)
	return aead, nil
}

// enter enters aead, the wrap cipher of a handle the enclave has just sealed
// under label, for that handle.
func (t *wrapTable) enter(label, handle []byte, aead *kdf.Sealer) {
	set, tag := t.set(handle)
	set.put(tag, label, handle, aead)
}

// resealedCipherLocked enters the wrap cipher of sealed, a handle the enclave
// has just sealed under label over the wrap key wk that the handle old opened
// to: the cipher the table holds for old, or else one built from wk. An add
// re-seals its partition's handle without changing the wrap key, so the next
// revocation finds the new handle here instead of unsealing it.
func (ie *IBBEEnclave) resealedCipherLocked(label, old, sealed []byte, wk [kdf.KeySize]byte) error {
	set, tag := ie.wraps.set(old)
	aead := set.get(tag, label, old, false)
	if aead == nil {
		var err error
		if aead, err = kdf.NewSealer(wk); err != nil {
			return err
		}
	}
	ie.wraps.enter(label, sealed, aead)
	return nil
}

// WrapTableStats returns how many re-wrapped handles took their wrap cipher
// from the table (hits) and how many were unsealed and built (misses) since
// the enclave started.
func (ie *IBBEEnclave) WrapTableStats() (hits, misses uint64) {
	return ie.wraps.hits.Load(), ie.wraps.misses.Load()
}
