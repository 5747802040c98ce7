package enclave

import (
	"fmt"
	"hash/maphash"
	"sync"

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
// handle opened under that label to a well-formed wrap key, and a lookup
// compares the full key bytes, so a hit hands out only a cipher the unseal
// itself would have built: a tampered, truncated or relabelled handle never
// matches and takes the unseal, which refuses it.
type wrapTable struct {
	sets [wrapTableSets]wrapSet
	seed maphash.Seed
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

// get returns the cipher cached for label ‖ handle, or nil.
func (s *wrapSet) get(tag uint64, label, handle []byte) *kdf.Sealer {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.way(tag, label, handle)
	if w < 0 {
		return nil
	}
	s.touch(w)
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
	if aead := set.get(tag, label, handle); aead != nil {
		return aead, nil
	}
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
