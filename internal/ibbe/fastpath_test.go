package ibbe

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// detRand is a deterministic byte stream (SHA-256 in counter mode). Feeding
// two scheme instances the same seed makes them draw identical scalars and
// points, which is what lets the differential tests demand bit-identical
// outputs rather than just "both decrypt".
type detRand struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newDetRand(seed string) *detRand {
	return &detRand{seed: sha256.Sum256([]byte(seed))}
}

func (d *detRand) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		var block [40]byte
		copy(block[:32], d.seed[:])
		binary.BigEndian.PutUint64(block[32:], d.ctr)
		d.ctr++
		sum := sha256.Sum256(block[:])
		d.buf = append(d.buf, sum[:]...)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// fastPathParamSets returns the parameter sets the differential suite runs
// on; the larger two only outside -short to keep local iteration quick.
func fastPathParamSets(t *testing.T) []*pairing.Params {
	t.Helper()
	sets := []*pairing.Params{pairing.TypeA160()}
	if !testing.Short() {
		sets = append(sets, pairing.TypeA256(), pairing.TypeA512())
	}
	return sets
}

// TestFastPathMatchesReference pins every operation of the table-driven fast
// path against the reference arithmetic, bit for bit: same deterministic
// randomness in, byte-identical keys, headers and broadcast keys out.
func TestFastPathMatchesReference(t *testing.T) {
	for _, params := range fastPathParamSets(t) {
		t.Run(params.Name(), func(t *testing.T) {
			const m = 12
			slow := NewScheme(params)
			slow.DisableFastPath = true
			fast := NewScheme(params)
			group := ids(m)

			// Setup: identical rng stream must yield identical key material.
			mskS, pkS, err := slow.Setup(m, newDetRand("setup"))
			if err != nil {
				t.Fatalf("slow Setup: %v", err)
			}
			mskF, pkF, err := fast.Setup(m, newDetRand("setup"))
			if err != nil {
				t.Fatalf("fast Setup: %v", err)
			}
			if !bytes.Equal(slow.MarshalPublicKey(pkS), fast.MarshalPublicKey(pkF)) {
				t.Fatal("Setup public keys differ between fast and reference paths")
			}
			if !params.G1.Equal(mskS.G, mskF.G) || mskS.Gamma.Cmp(mskF.Gamma) != 0 {
				t.Fatal("Setup master secrets differ between fast and reference paths")
			}

			// From here on both paths share one key set; only the arithmetic
			// route differs.
			msk, pk := mskF, pkF

			ukS, err := slow.Extract(msk, group[0])
			if err != nil {
				t.Fatalf("slow Extract: %v", err)
			}
			ukF, err := fast.Extract(msk, group[0])
			if err != nil {
				t.Fatalf("fast Extract: %v", err)
			}
			if !bytes.Equal(slow.MarshalUserKey(ukS), fast.MarshalUserKey(ukF)) {
				t.Fatal("Extract differs between fast and reference paths")
			}

			type op struct {
				name string
				run  func(s *Scheme) ([]byte, []byte, error)
			}
			_, baseCt, err := fast.EncryptMSK(msk, pk, group, newDetRand("base"))
			if err != nil {
				t.Fatalf("base EncryptMSK: %v", err)
			}
			ops := []op{
				{"EncryptMSK", func(s *Scheme) ([]byte, []byte, error) {
					bk, ct, err := s.EncryptMSK(msk, pk, group, newDetRand("enc"))
					if err != nil {
						return nil, nil, err
					}
					return params.GTMarshal(bk), s.MarshalCiphertext(ct), nil
				}},
				{"EncryptClassic", func(s *Scheme) ([]byte, []byte, error) {
					bk, ct, err := s.EncryptClassic(pk, group, newDetRand("classic"))
					if err != nil {
						return nil, nil, err
					}
					return params.GTMarshal(bk), s.MarshalCiphertext(ct), nil
				}},
				{"Decrypt", func(s *Scheme) ([]byte, []byte, error) {
					bk, err := s.Decrypt(pk, group[0], ukF, group, baseCt)
					if err != nil {
						return nil, nil, err
					}
					return params.GTMarshal(bk), nil, nil
				}},
				{"AddUsers", func(s *Scheme) ([]byte, []byte, error) {
					ct := s.AddUsers(msk, baseCt, []string{"new-a@x", "new-b@x"})
					return nil, s.MarshalCiphertext(ct), nil
				}},
				{"RemoveUsers", func(s *Scheme) ([]byte, []byte, error) {
					bk, ct, err := s.RemoveUsers(msk, pk, baseCt, group[:2], newDetRand("rm"))
					if err != nil {
						return nil, nil, err
					}
					return params.GTMarshal(bk), s.MarshalCiphertext(ct), nil
				}},
				{"Rekey", func(s *Scheme) ([]byte, []byte, error) {
					bk, ct, err := s.Rekey(pk, baseCt, newDetRand("rekey"))
					if err != nil {
						return nil, nil, err
					}
					return params.GTMarshal(bk), s.MarshalCiphertext(ct), nil
				}},
			}
			for _, o := range ops {
				bkS, ctS, err := o.run(slow)
				if err != nil {
					t.Fatalf("slow %s: %v", o.name, err)
				}
				bkF, ctF, err := o.run(fast)
				if err != nil {
					t.Fatalf("fast %s: %v", o.name, err)
				}
				if !bytes.Equal(bkS, bkF) {
					t.Fatalf("%s: broadcast keys differ between fast and reference paths", o.name)
				}
				if !bytes.Equal(ctS, ctF) {
					t.Fatalf("%s: ciphertexts differ between fast and reference paths", o.name)
				}
			}
		})
	}
}

// TestFastPathDecryptsReferenceCiphertext crosses the paths: reference
// encrypt / fast decrypt and vice versa, on a shared key set.
func TestFastPathDecryptsReferenceCiphertext(t *testing.T) {
	slow := NewScheme(pairing.TypeA160())
	slow.DisableFastPath = true
	fast := NewScheme(pairing.TypeA160())
	msk, pk := setup(t, fast, 8)
	group := ids(8)
	uk, err := fast.Extract(msk, group[3])
	if err != nil {
		t.Fatal(err)
	}
	bk, ct, err := slow.EncryptMSK(msk, pk, group, newDetRand("cross-1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.Decrypt(pk, group[3], uk, group, ct)
	if err != nil || !fast.P.GTEqual(got, bk) {
		t.Fatalf("fast Decrypt of reference ciphertext: %v", err)
	}
	bk, ct, err = fast.EncryptMSK(msk, pk, group, newDetRand("cross-2"))
	if err != nil {
		t.Fatal(err)
	}
	got, err = slow.Decrypt(pk, group[3], uk, group, ct)
	if err != nil || !slow.P.GTEqual(got, bk) {
		t.Fatalf("reference Decrypt of fast ciphertext: %v", err)
	}
}

// setOf is the memo set id maps to.
func (hs *idHasher) setOf(id string) *hashSet { return &hs.sets[hs.tag(id)%hashMemoSets] }

// memoHolds reports whether id's memo set holds an entry for it.
func (hs *idHasher) memoHolds(id string) bool {
	set := hs.setOf(id)
	set.mu.Lock()
	defer set.mu.Unlock()
	for w := range set.id {
		if set.full[w] && set.id[w] == id {
			return true
		}
	}
	return false
}

// TestHashIDMemoMatchesUncachedAndCopies checks that a memo hit returns the
// reference value and that no returned big.Int aliases the table.
func TestHashIDMemoMatchesUncachedAndCopies(t *testing.T) {
	s := testScheme(t)
	hs := s.hasher()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("memo-%03d@example.com", i)
		first := s.HashID(id) // fills an entry of the id's set
		if !hs.memoHolds(id) {
			t.Fatalf("%s: miss did not fill its set", id)
		}
		second := s.HashID(id) // memo hit
		if first.Cmp(second) != 0 {
			t.Fatalf("memoized hash differs for %s", id)
		}
		if first.Cmp(s.hashIDUncached(id)) != 0 {
			t.Fatalf("memoized hash differs from uncached for %s", id)
		}
		// Mutating a returned value must not poison the cache.
		second.SetInt64(1)
		if s.HashID(id).Cmp(first) != 0 {
			t.Fatalf("cache poisoned through returned value for %s", id)
		}
	}
}

// TestHashIDMemoBounded sweeps more fresh ids than the table has entries: a
// miss must allocate nothing (no growth, no per-entry value), and every
// filled entry must sit in its id's set and hold its id's hash.
func TestHashIDMemoBounded(t *testing.T) {
	s := testScheme(t)
	hs := s.hasher()
	fresh := make([]string, 4*hashMemoSets)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("bound-%05d@example.com", i)
	}
	var h ff.Fel
	next := 0
	allocs := testing.AllocsPerRun(len(fresh)-1, func() {
		s.hashMont(&h, fresh[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("a memo miss allocates %.1f times; want 0", allocs)
	}
	m := s.P.Zr.Mont()
	filled := 0
	for i := range hs.sets {
		set := &hs.sets[i]
		for w := range set.id {
			if !set.full[w] {
				continue
			}
			filled++
			if hs.setOf(set.id[w]) != set || m.ToBig(&set.v[w]).Cmp(s.hashIDUncached(set.id[w])) != 0 {
				t.Fatalf("set %d holds a wrong entry for %s", i, set.id[w])
			}
		}
	}
	if filled > 2*hashMemoSets || filled < hashMemoSets {
		t.Fatalf("%d entries filled after %d fresh ids into %d", filled, len(fresh), 2*hashMemoSets)
	}
}

// TestHashIDConcurrent hammers the memo from many goroutines over ids picked
// to collide: more ids share each of a few sets than the set has ways, so
// workers overwrite the same entries while others read them. Every result
// is checked against the reference; run under -race this proves the table
// is race-clean.
func TestHashIDConcurrent(t *testing.T) {
	s := testScheme(t)
	slow := NewScheme(s.P)
	slow.DisableFastPath = true
	hs := s.hasher()
	const sets, perSet = 8, 6
	bySet := map[*hashSet][]string{}
	var shared []string
	for i := 0; len(shared) < sets*perSet; i++ {
		id := fmt.Sprintf("conc-%05d@example.com", i)
		set := hs.setOf(id)
		if len(bySet[set]) == perSet || (len(bySet) == sets && bySet[set] == nil) {
			continue
		}
		bySet[set] = append(bySet[set], id)
		shared = append(shared, id)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := shared[(i*(w+1))%len(shared)]
				if s.HashID(id).Cmp(slow.HashID(id)) != 0 {
					errs <- fmt.Errorf("worker %d: hash mismatch for %s", w, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPrecomputeConcurrent exercises the lazy per-key tables from many
// goroutines at once: every operation must agree with the reference path no
// matter which goroutine wins the sync.Once races.
func TestPrecomputeConcurrent(t *testing.T) {
	fast := NewScheme(pairing.TypeA160())
	slow := NewScheme(pairing.TypeA160())
	slow.DisableFastPath = true
	msk, pk := setup(t, fast, 8)
	group := ids(8)
	uk, err := fast.Extract(msk, group[0])
	if err != nil {
		t.Fatal(err)
	}
	bk, ct, err := slow.EncryptMSK(msk, pk, group, newDetRand("pre"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := fmt.Sprintf("pre-%d", w)
			if _, _, err := fast.EncryptMSK(msk, pk, group, newDetRand(seed)); err != nil {
				errs <- err
				return
			}
			got, err := fast.Decrypt(pk, group[0], uk, group, ct)
			if err != nil {
				errs <- err
				return
			}
			if !fast.P.GTEqual(got, bk) {
				errs <- fmt.Errorf("worker %d: wrong broadcast key", w)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
