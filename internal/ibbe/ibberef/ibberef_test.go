package ibberef

import (
	"crypto/rand"
	"fmt"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// TestReferenceSchemeRoundTrips checks the reference on its own terms, with
// no fast scheme involved: every member decrypts the broadcast key of a
// header from either encryption, a joiner decrypts the unchanged key after
// AddUsers, and a removal rotates the key for the survivors only.
func TestReferenceSchemeRoundTrips(t *testing.T) {
	s := New(pairing.TypeA160())
	const m = 6
	msk, pk, err := s.Setup(m, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	group := make([]string, m)
	keys := make([]*ibbe.UserKey, m)
	for i := range group {
		group[i] = fmt.Sprintf("user-%d@example.com", i)
		if keys[i], err = s.Extract(msk, group[i]); err != nil {
			t.Fatal(err)
		}
	}
	decrypts := func(roster []string, ct *ibbe.Ciphertext, bk *ibbe.BroadcastKey, who int) bool {
		t.Helper()
		got, err := s.Decrypt(pk, group[who], keys[who], roster, ct)
		return err == nil && s.P.GTEqual(got, bk)
	}

	bk, ct, err := s.EncryptMSK(msk, pk, group[:4], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bkC, ctC, err := s.EncryptClassic(pk, group[:4], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !decrypts(group[:4], ct, bk, i) || !decrypts(group[:4], ctC, bkC, i) {
			t.Fatalf("member %d does not decrypt", i)
		}
	}
	if !s.P.G1.Equal(ct.C3, ctC.C3) {
		t.Fatal("EncryptMSK and EncryptClassic disagree on C3 = h^Π(γ+H(u))")
	}

	ct = s.AddUsers(msk, ct, group[4:])
	if !decrypts(group, ct, bk, 5) {
		t.Fatal("a joiner does not decrypt the unchanged key")
	}
	bk2, ct2, err := s.RemoveUsers(msk, pk, ct, group[:1], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if s.P.GTEqual(bk2, bk) || !decrypts(group[1:], ct2, bk2, 1) {
		t.Fatal("a removal did not rotate the key for the survivors")
	}
	if _, err := s.Decrypt(pk, group[0], keys[0], group[1:], ct2); err == nil {
		t.Fatal("the removed member decrypts")
	}
}
