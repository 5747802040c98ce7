package ibbe

import (
	"crypto/rand"
	"fmt"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// Microbenchmarks for the IBBE primitives, split by receiver-set size so
// the O(n) vs O(n²) paths are visible in -benchmem output.

func benchSetup(b *testing.B, m int) (*Scheme, *MasterSecretKey, *PublicKey, []string) {
	b.Helper()
	s := NewScheme(pairing.TypeA160())
	msk, pk, err := s.Setup(m, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	group := make([]string, m)
	for i := range group {
		group[i] = fmt.Sprintf("user-%04d@bench", i)
	}
	return s, msk, pk, group
}

func BenchmarkEncryptMSK(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, msk, pk, group := benchSetup(b, n)
			if _, _, err := s.EncryptMSK(msk, pk, group, rand.Reader); err != nil {
				b.Fatal(err) // warm the per-key tables outside the timer
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.EncryptMSK(msk, pk, group, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncryptClassic(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, _, pk, group := benchSetup(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.EncryptClassic(pk, group, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecrypt(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, msk, pk, group := benchSetup(b, n)
			_, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			uk, err := s.Extract(msk, group[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decrypt(pk, group[0], uk, group, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAddUserOp(b *testing.B) {
	s, msk, pk, group := benchSetup(b, 64)
	_, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddUser(msk, ct, fmt.Sprintf("joiner-%d@bench", i))
	}
}

func BenchmarkRemoveUserOp(b *testing.B) {
	s, msk, pk, group := benchSetup(b, 64)
	_, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.RemoveUser(msk, pk, ct, group[0], rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtract(b *testing.B) {
	s, msk, _, _ := benchSetup(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Extract(msk, fmt.Sprintf("user-%d@bench", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMembershipOps512 prices one add and one removal at the paper
// width and a full partition, on both paths: "state" derives the header from
// the partition's exponents through the constant-time fixed-base tables,
// "stateless" raises the previous header with the variable-base walk.
func BenchmarkMembershipOps512(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale parameters")
	}
	const m = 256
	s := NewScheme(pairing.TypeA512())
	msk, pk, err := s.Setup(m, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	group := make([]string, m-1)
	for i := range group {
		group[i] = fmt.Sprintf("user-%04d@bench", i)
	}
	joiner := []string{"joiner@bench"}
	_, ct, st, err := s.EncryptMSKState(msk, pk, group, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	full, fullSt := s.AddUsersState(msk, pk, ct, st, joiner) // also warms the tables
	b.Run("add/state", func(b *testing.B) {
		for b.Loop() {
			s.AddUsersState(msk, pk, ct, st, joiner)
		}
	})
	b.Run("add/stateless", func(b *testing.B) {
		for b.Loop() {
			s.AddUsers(msk, ct, joiner)
		}
	})
	b.Run("remove/state", func(b *testing.B) {
		for b.Loop() {
			if _, _, _, err := s.RemoveUsersState(msk, pk, fullSt, joiner, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remove/stateless", func(b *testing.B) {
		for b.Loop() {
			if _, _, err := s.RemoveUsers(msk, pk, full, joiner, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// paperKey sets up the paper-width scheme (type-a-512) with m = 256 and one
// full partition's worth of receivers.
func paperKey(b *testing.B) (*Scheme, *MasterSecretKey, *PublicKey, []string) {
	b.Helper()
	if testing.Short() {
		b.Skip("paper-scale parameters")
	}
	const m = 256
	s := NewScheme(pairing.TypeA512())
	msk, pk, err := s.Setup(m, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	group := make([]string, m)
	for i := range group {
		group[i] = fmt.Sprintf("user-%04d@bench", i)
	}
	return s, msk, pk, group
}

// BenchmarkSetup512 prices Setup(256) at the paper width: g^γ, the 257
// powers h^{γ^i} on the constant-time fixed-base walk (the h tables' builds
// included) and one pairing.
func BenchmarkSetup512(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale parameters")
	}
	s := NewScheme(pairing.TypeA512())
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := s.Setup(256, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecrypt512 prices a member's decrypt of a full partition at the
// paper width (m = 256): the O(m²) polynomial expansion, the Straus
// multi-exponentiation over the public key's table, two pairings and one GT
// exponentiation. The per-key tables are warmed outside the timer.
func BenchmarkDecrypt512(b *testing.B) {
	s, msk, pk, group := paperKey(b)
	_, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	uk, err := s.Extract(msk, group[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Decrypt(pk, group[0], uk, group, ct); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Decrypt(pk, group[0], uk, group, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiExpTable512 prices the one-time build of the public key's
// multi-exponentiation table (every h^{γ^i}, m = 256) that Decrypt warms on
// first use.
func BenchmarkMultiExpTable512(b *testing.B) {
	s, _, pk, _ := paperKey(b)
	b.ReportAllocs()
	for b.Loop() {
		s.P.G1.NewMultiExpTable(pk.HPowers)
	}
}

// BenchmarkMultiExp512 prices the decrypt's multi-exponentiation alone at the
// paper width: Σ coeffs[l]·h^{γ^{l−1}} over the 255 coefficients a member of
// a full partition (m = 256) expands, on the warmed public-key table.
func BenchmarkMultiExp512(b *testing.B) {
	s, _, pk, group := paperKey(b)
	coeffs := s.expandProductPoly(group[1:])[1:]
	s.multiExpHPowers(pk, coeffs, 0)
	b.ReportAllocs()
	for b.Loop() {
		s.multiExpHPowers(pk, coeffs, 0)
	}
}

// BenchmarkExtract512 prices one user-key extraction at the paper width: the
// identity hash, one Z_r inversion and the constant-time walk over the master
// key's fixed-base table for g, warmed outside the timer.
func BenchmarkExtract512(b *testing.B) {
	s, msk, _, _ := paperKey(b)
	if _, err := s.Extract(msk, "warm@bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := s.Extract(msk, fmt.Sprintf("user-%d@bench", i)); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// freshIDs returns n distinct ids.
func freshIDs(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%06d@bench", prefix, i)
	}
	return out
}

// BenchmarkHashID512 prices H(u) at the paper width (a 36-byte digest
// reduced mod r − 1, a 160-bit r) through HashID over a ring of 65 536 ids,
// including HashID's conversion of the result to a fresh big.Int.
func BenchmarkHashID512(b *testing.B) {
	s := NewScheme(pairing.TypeA512())
	ids := freshIDs("fresh", 1<<16)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s.HashID(ids[i&(len(ids)-1)])
		i++
	}
}

// BenchmarkProdGammaPlusHash512 prices the exponent aggregation of a group
// creation at the paper width, Π(γ + H(u)) over 32 768 ids, as on a large
// fresh create.
func BenchmarkProdGammaPlusHash512(b *testing.B) {
	s := NewScheme(pairing.TypeA512())
	gamma, err := s.P.G1.RandScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ids := freshIDs("member", 1<<15)
	b.ReportAllocs()
	for b.Loop() {
		s.prodGammaPlusHash(gamma, ids)
	}
}
