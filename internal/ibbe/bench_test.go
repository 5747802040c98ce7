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

func BenchmarkEncryptMSKReference(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, msk, pk, group := benchSetup(b, n)
			s.DisableFastPath = true
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
