package ibbe_test

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/ibbe/ibberef"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// The differential suite: package ibbe's one arithmetic against the textbook
// transcription in ibberef, bit for bit, on the same random streams.

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

// hashTestParams are the parameter sets the limb hash is pinned on: Z_r of
// 81, 122 and 160 bits, reducing 27-, 32- and 36-byte digests.
var hashTestParams = []func() *pairing.Params{pairing.TypeA160, pairing.TypeA256, pairing.TypeA512}

func ids(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%04d@example.com", i)
	}
	return out
}

// hashEdgeIDs are the empty id and the ids at the stack buffer's edges and
// beyond it, which the product copies into a heap buffer.
func hashEdgeIDs() []string {
	out := []string{"", "a", "alice@example.com"}
	for _, n := range []int{ibbe.IDStackBytes - 1, ibbe.IDStackBytes, ibbe.IDStackBytes + 1, 200, 1000} {
		out = append(out, strings.Repeat("x", n), strings.Repeat("é", n/2+1))
	}
	return out
}

func setup(t *testing.T, s *ibbe.Scheme, m int) (*ibbe.MasterSecretKey, *ibbe.PublicKey) {
	t.Helper()
	msk, pk, err := s.Setup(m, rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return msk, pk
}

// TestFastPathMatchesReference pins every operation of the table-driven
// scheme against the reference scheme, bit for bit: same deterministic
// randomness in, byte-identical keys, headers, broadcast keys and identity
// hashes out.
func TestFastPathMatchesReference(t *testing.T) {
	for _, params := range fastPathParamSets(t) {
		t.Run(params.Name(), func(t *testing.T) {
			const m = 12
			ref := ibberef.New(params)
			fast := ibbe.NewScheme(params)
			group := ids(m)

			// Setup: identical rng stream must yield identical key material.
			mskS, pkS, err := ref.Setup(m, ibbe.NewDetRand("setup"))
			if err != nil {
				t.Fatalf("reference Setup: %v", err)
			}
			mskF, pkF, err := fast.Setup(m, ibbe.NewDetRand("setup"))
			if err != nil {
				t.Fatalf("fast Setup: %v", err)
			}
			if !bytes.Equal(fast.MarshalPublicKey(pkS), fast.MarshalPublicKey(pkF)) {
				t.Fatal("Setup public keys differ between fast and reference schemes")
			}
			if !params.G1.Equal(mskS.G, mskF.G) || mskS.Gamma.Cmp(mskF.Gamma) != 0 {
				t.Fatal("Setup master secrets differ between fast and reference schemes")
			}

			// From here on both schemes share one key set; only the
			// arithmetic differs.
			msk, pk := mskF, pkF

			ukS, err := ref.Extract(msk, group[0])
			if err != nil {
				t.Fatalf("reference Extract: %v", err)
			}
			ukF, err := fast.Extract(msk, group[0])
			if err != nil {
				t.Fatalf("fast Extract: %v", err)
			}
			if !bytes.Equal(fast.MarshalUserKey(ukS), fast.MarshalUserKey(ukF)) {
				t.Fatal("Extract differs between fast and reference schemes")
			}

			for _, id := range hashEdgeIDs() {
				if got, want := fast.HashID(id), ref.HashID(id); got.Cmp(want) != 0 {
					t.Fatalf("HashID(%q) of %d bytes: %v, reference %v", id, len(id), got, want)
				}
			}

			_, baseCt, err := fast.EncryptMSK(msk, pk, group, ibbe.NewDetRand("base"))
			if err != nil {
				t.Fatalf("base EncryptMSK: %v", err)
			}
			// edge is a roster holding the empty id and ids past the stack
			// buffer, so their hashes run through every roster product.
			edge := append(hashEdgeIDs()[:m-4], group[:4]...)
			type result struct {
				bk *ibbe.BroadcastKey
				ct *ibbe.Ciphertext
			}
			ops := []struct {
				name      string
				ref, fast func() (result, error)
			}{
				{"EncryptMSK",
					func() (result, error) {
						bk, ct, err := ref.EncryptMSK(msk, pk, group, ibbe.NewDetRand("enc"))
						return result{bk, ct}, err
					},
					func() (result, error) {
						bk, ct, err := fast.EncryptMSK(msk, pk, group, ibbe.NewDetRand("enc"))
						return result{bk, ct}, err
					}},
				{"EncryptMSK/edge-ids",
					func() (result, error) {
						bk, ct, err := ref.EncryptMSK(msk, pk, edge, ibbe.NewDetRand("enc-edge"))
						return result{bk, ct}, err
					},
					func() (result, error) {
						bk, ct, err := fast.EncryptMSK(msk, pk, edge, ibbe.NewDetRand("enc-edge"))
						return result{bk, ct}, err
					}},
				{"EncryptClassic",
					func() (result, error) {
						bk, ct, err := ref.EncryptClassic(pk, group, ibbe.NewDetRand("classic"))
						return result{bk, ct}, err
					},
					func() (result, error) {
						bk, ct, err := fast.EncryptClassic(pk, group, ibbe.NewDetRand("classic"))
						return result{bk, ct}, err
					}},
				{"EncryptClassic/edge-ids",
					func() (result, error) {
						bk, ct, err := ref.EncryptClassic(pk, edge, ibbe.NewDetRand("classic-edge"))
						return result{bk, ct}, err
					},
					func() (result, error) {
						bk, ct, err := fast.EncryptClassic(pk, edge, ibbe.NewDetRand("classic-edge"))
						return result{bk, ct}, err
					}},
				{"Decrypt",
					func() (result, error) {
						bk, err := ref.Decrypt(pk, group[0], ukF, group, baseCt)
						return result{bk: bk}, err
					},
					func() (result, error) {
						bk, err := fast.Decrypt(pk, group[0], ukF, group, baseCt)
						return result{bk: bk}, err
					}},
				{"AddUsers",
					func() (result, error) {
						return result{ct: ref.AddUsers(msk, baseCt, []string{"new-a@x", "new-b@x"})}, nil
					},
					func() (result, error) {
						return result{ct: fast.AddUsers(msk, baseCt, []string{"new-a@x", "new-b@x"})}, nil
					}},
				{"RemoveUsers",
					func() (result, error) {
						bk, ct, err := ref.RemoveUsers(msk, pk, baseCt, group[:2], ibbe.NewDetRand("rm"))
						return result{bk, ct}, err
					},
					func() (result, error) {
						bk, ct, err := fast.RemoveUsers(msk, pk, baseCt, group[:2], ibbe.NewDetRand("rm"))
						return result{bk, ct}, err
					}},
				{"Rekey",
					func() (result, error) {
						bk, ct, err := ref.Rekey(pk, baseCt, ibbe.NewDetRand("rekey"))
						return result{bk, ct}, err
					},
					func() (result, error) {
						bk, ct, err := fast.Rekey(pk, baseCt, ibbe.NewDetRand("rekey"))
						return result{bk, ct}, err
					}},
			}
			for _, o := range ops {
				want, err := o.ref()
				if err != nil {
					t.Fatalf("reference %s: %v", o.name, err)
				}
				got, err := o.fast()
				if err != nil {
					t.Fatalf("fast %s: %v", o.name, err)
				}
				if (want.bk == nil) != (got.bk == nil) || want.bk != nil && !bytes.Equal(params.GTMarshal(want.bk), params.GTMarshal(got.bk)) {
					t.Fatalf("%s: broadcast keys differ between fast and reference schemes", o.name)
				}
				if (want.ct == nil) != (got.ct == nil) || want.ct != nil && !bytes.Equal(fast.MarshalCiphertext(want.ct), fast.MarshalCiphertext(got.ct)) {
					t.Fatalf("%s: ciphertexts differ between fast and reference schemes", o.name)
				}
			}
		})
	}
}

// TestFastPathDecryptsReferenceCiphertext crosses the schemes: reference
// encrypt / fast decrypt and vice versa, on a shared key set.
func TestFastPathDecryptsReferenceCiphertext(t *testing.T) {
	ref := ibberef.New(pairing.TypeA160())
	fast := ibbe.NewScheme(pairing.TypeA160())
	msk, pk := setup(t, fast, 8)
	group := ids(8)
	uk, err := fast.Extract(msk, group[3])
	if err != nil {
		t.Fatal(err)
	}
	bk, ct, err := ref.EncryptMSK(msk, pk, group, ibbe.NewDetRand("cross-1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.Decrypt(pk, group[3], uk, group, ct)
	if err != nil || !fast.P.GTEqual(got, bk) {
		t.Fatalf("fast Decrypt of reference ciphertext: %v", err)
	}
	bk, ct, err = fast.EncryptMSK(msk, pk, group, ibbe.NewDetRand("cross-2"))
	if err != nil {
		t.Fatal(err)
	}
	got, err = ref.Decrypt(pk, group[3], uk, group, ct)
	if err != nil || !ref.P.GTEqual(got, bk) {
		t.Fatalf("reference Decrypt of fast ciphertext: %v", err)
	}
}

// TestHashIDMontMatchesReference is the differential test of the identity
// hash against the reference: ≥ 20 000 ids per parameter set, plus the
// empty id and ids longer than the stack buffer.
func TestHashIDMontMatchesReference(t *testing.T) {
	for _, params := range hashTestParams {
		p := params()
		t.Run(p.Name(), func(t *testing.T) {
			s, ref := ibbe.NewScheme(p), ibberef.New(p)
			ids := hashEdgeIDs()
			rng := mrand.New(mrand.NewSource(40))
			for i := 0; i < 20000; i++ {
				ids = append(ids, fmt.Sprintf("user-%d-%x@example.com", i, rng.Uint64()))
			}
			for _, id := range ids {
				if got, want := s.HashID(id), ref.HashID(id); got.Cmp(want) != 0 {
					t.Fatalf("HashID(%q): %v, reference %v", id, got, want)
				}
			}
		})
	}
}

// FuzzHashID cross-checks the identity hash against the reference on
// fuzzer-chosen ids at every built-in width, and the reducer against
// big.Int Mod on fuzzer-chosen digests. CI runs it as a short smoke
// (`make fuzz`).
func FuzzHashID(f *testing.F) {
	f.Add("", []byte{})
	f.Add("alice@example.com", []byte{0xff, 0xff, 0xff})
	f.Add(strings.Repeat("x", ibbe.IDStackBytes+1), []byte(strings.Repeat("\xff", 36)))
	schemes := make([]*ibbe.Scheme, len(hashTestParams))
	for i, params := range hashTestParams {
		schemes[i] = ibbe.NewScheme(params())
	}
	f.Fuzz(func(t *testing.T, id string, digest []byte) {
		for _, s := range schemes {
			if got, want := s.HashID(id), ibberef.New(s.P).HashID(id); got.Cmp(want) != 0 {
				t.Fatalf("%s: HashID(%q): %v, reference %v", s.P.Name(), id, got, want)
			}
			need := (s.P.R.BitLen()+7)/8 + 16
			v := new(big.Int).SetBytes(digest[:min(len(digest), need)])
			rm1 := new(big.Int).Sub(s.P.R, big.NewInt(1))
			if got, want := ibbe.ReduceModRMinus1(s, v), new(big.Int).Mod(v, rm1); got.Cmp(want) != 0 {
				t.Fatalf("%s: %v mod r−1: got %v, want %v", s.P.Name(), v, got, want)
			}
		}
	})
}

// TestHashIDConcurrent hashes a shared set of ids from many goroutines on
// one Scheme, each result checked against the reference; run under -race
// this proves the hash state NewScheme builds is read-only.
func TestHashIDConcurrent(t *testing.T) {
	p := pairing.TypeA160()
	s, ref := ibbe.NewScheme(p), ibberef.New(p)
	shared := append(hashEdgeIDs(), ids(48)...)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				id := shared[(i*(w+1))%len(shared)]
				if s.HashID(id).Cmp(ref.HashID(id)) != 0 {
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
// goroutines at once: every operation must agree with the reference scheme
// no matter which goroutine wins the sync.Once races.
func TestPrecomputeConcurrent(t *testing.T) {
	fast := ibbe.NewScheme(pairing.TypeA160())
	ref := ibberef.New(pairing.TypeA160())
	msk, pk := setup(t, fast, 8)
	group := ids(8)
	uk, err := fast.Extract(msk, group[0])
	if err != nil {
		t.Fatal(err)
	}
	bk, ct, err := ref.EncryptMSK(msk, pk, group, ibbe.NewDetRand("pre"))
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
			if _, _, err := fast.EncryptMSK(msk, pk, group, ibbe.NewDetRand(seed)); err != nil {
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

// BenchmarkEncryptMSKReference prices EncryptMSK on the reference scheme,
// beside BenchmarkEncryptMSK on the product one.
func BenchmarkEncryptMSKReference(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ref := ibberef.New(pairing.TypeA160())
			msk, pk, err := ref.Setup(n, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			group := make([]string, n)
			for i := range group {
				group[i] = fmt.Sprintf("user-%04d@bench", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ref.EncryptMSK(msk, pk, group, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
