package ibbe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

func testScheme(t *testing.T) *Scheme {
	t.Helper()
	return NewScheme(pairing.TypeA160())
}

func setup(t *testing.T, s *Scheme, m int) (*MasterSecretKey, *PublicKey) {
	t.Helper()
	msk, pk, err := s.Setup(m, rand.Reader)
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return msk, pk
}

func ids(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%04d@example.com", i)
	}
	return out
}

func TestSetupShapes(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	if pk.MaxGroupSize() != 8 {
		t.Fatalf("MaxGroupSize = %d, want 8", pk.MaxGroupSize())
	}
	if len(pk.HPowers) != 9 {
		t.Fatalf("len(HPowers) = %d, want 9", len(pk.HPowers))
	}
	// w = g^γ.
	if !s.P.G1.Equal(pk.W, s.P.G1.ScalarMultReduced(msk.G, msk.Gamma)) {
		t.Fatal("W ≠ g^γ")
	}
	// HPowers[1] = h^γ.
	if !s.P.G1.Equal(pk.HPowers[1], s.P.G1.ScalarMultReduced(pk.HPowers[0], msk.Gamma)) {
		t.Fatal("HPowers[1] ≠ h^γ")
	}
	// v = e(g, h).
	if !s.P.GTEqual(pk.V, s.P.Pair(msk.G, pk.HPowers[0])) {
		t.Fatal("V ≠ e(g, h)")
	}
}

func TestSetupRejectsBadSize(t *testing.T) {
	s := testScheme(t)
	if _, _, err := s.Setup(0, rand.Reader); err == nil {
		t.Fatal("Setup(0) accepted")
	}
}

func TestEncryptMSKDecryptRoundTrip(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 10)
	group := ids(6)
	bk, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatalf("EncryptMSK: %v", err)
	}
	for _, u := range group {
		uk, err := s.Extract(msk, u)
		if err != nil {
			t.Fatalf("Extract(%s): %v", u, err)
		}
		got, err := s.Decrypt(pk, u, uk, group, ct)
		if err != nil {
			t.Fatalf("Decrypt(%s): %v", u, err)
		}
		if !s.P.GTEqual(got, bk) {
			t.Fatalf("member %s recovered wrong broadcast key", u)
		}
	}
}

func TestEncryptClassicDecryptRoundTrip(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 10)
	group := ids(5)
	bk, ct, err := s.EncryptClassic(pk, group, rand.Reader)
	if err != nil {
		t.Fatalf("EncryptClassic: %v", err)
	}
	for _, u := range group {
		uk, err := s.Extract(msk, u)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Decrypt(pk, u, uk, group, ct)
		if err != nil {
			t.Fatalf("Decrypt(%s): %v", u, err)
		}
		if !s.P.GTEqual(got, bk) {
			t.Fatalf("member %s recovered wrong key from classic ciphertext", u)
		}
	}
}

func TestClassicAndMSKProduceInterchangeableHeaders(t *testing.T) {
	// Both paths must produce the same C3 (deterministic in S) and headers
	// decryptable by the same user keys.
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	group := ids(4)
	_, ctM, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, ctC, err := s.EncryptClassic(pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !s.P.G1.Equal(ctM.C3, ctC.C3) {
		t.Fatal("MSK and classic paths disagree on C3 = h^Π(γ+H(u))")
	}
}

func TestDecryptSingletonGroup(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 4)
	group := []string{"solo@example.com"}
	bk, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := s.Extract(msk, group[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(pk, group[0], uk, group, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !s.P.GTEqual(got, bk) {
		t.Fatal("singleton decrypt failed")
	}
}

func TestNonMemberCannotDecrypt(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	group := ids(4)
	bk, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	outsider := "mallory@evil.example"
	uk, err := s.Extract(msk, outsider)
	if err != nil {
		t.Fatal(err)
	}
	// Honest API refuses: outsider not in receiver list.
	if _, err := s.Decrypt(pk, outsider, uk, group, ct); !errors.Is(err, ErrNotMember) {
		t.Fatalf("Decrypt for non-member returned %v, want ErrNotMember", err)
	}
	// Cheating attempt: outsider claims a member's slot with her own key.
	got, err := s.Decrypt(pk, group[0], uk, group, ct)
	if err == nil && s.P.GTEqual(got, bk) {
		t.Fatal("outsider recovered the broadcast key with mismatched user key")
	}
}

func TestRevokedMemberCannotDecryptNewKey(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	group := ids(4)
	_, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	revoked := group[1]
	newBk, newCt, err := s.RemoveUser(msk, pk, ct, revoked, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	remaining := []string{group[0], group[2], group[3]}

	// Remaining members still decrypt.
	for _, u := range remaining {
		uk, _ := s.Extract(msk, u)
		got, err := s.Decrypt(pk, u, uk, remaining, newCt)
		if err != nil {
			t.Fatalf("remaining member %s: %v", u, err)
		}
		if !s.P.GTEqual(got, newBk) {
			t.Fatalf("remaining member %s got wrong key", u)
		}
	}
	// The revoked member's key no longer works even claiming a valid slot.
	rk, _ := s.Extract(msk, revoked)
	got, err := s.Decrypt(pk, remaining[0], rk, remaining, newCt)
	if err == nil && s.P.GTEqual(got, newBk) {
		t.Fatal("revoked member recovered the new broadcast key")
	}
}

func TestAddUserPreservesKeyAndExtendsSet(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	group := ids(3)
	bk, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	joiner := "newcomer@example.com"
	ct2 := s.AddUser(msk, ct, joiner)
	newGroup := append(append([]string{}, group...), joiner)

	// The broadcast key did not change (joiner may read prior content).
	uk, _ := s.Extract(msk, joiner)
	got, err := s.Decrypt(pk, joiner, uk, newGroup, ct2)
	if err != nil {
		t.Fatalf("joiner decrypt: %v", err)
	}
	if !s.P.GTEqual(got, bk) {
		t.Fatal("joiner recovered a different key than the group key")
	}
	// Old members still decrypt the extended header.
	uk0, _ := s.Extract(msk, group[0])
	got0, err := s.Decrypt(pk, group[0], uk0, newGroup, ct2)
	if err != nil || !s.P.GTEqual(got0, bk) {
		t.Fatalf("existing member failed after add: %v", err)
	}
	// Original ciphertext untouched (non-destructive API).
	if s.P.G1.Equal(ct.C2, ct2.C2) {
		t.Fatal("AddUser did not change C2")
	}
}

func TestRekeyChangesKeyKeepsMembership(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	group := ids(4)
	bk, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bk2, ct2, err := s.Rekey(pk, ct, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if s.P.GTEqual(bk, bk2) {
		t.Fatal("Rekey produced the same broadcast key")
	}
	for _, u := range group {
		uk, _ := s.Extract(msk, u)
		got, err := s.Decrypt(pk, u, uk, group, ct2)
		if err != nil || !s.P.GTEqual(got, bk2) {
			t.Fatalf("member %s cannot decrypt after rekey: %v", u, err)
		}
	}
}

func TestRemoveThenAddBack(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	group := ids(3)
	_, ct, err := s.EncryptMSK(msk, pk, group, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bk2, ct2, err := s.RemoveUser(msk, pk, ct, group[2], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct3 := s.AddUser(msk, ct2, group[2])
	uk, _ := s.Extract(msk, group[2])
	got, err := s.Decrypt(pk, group[2], uk, group, ct3)
	if err != nil {
		t.Fatal(err)
	}
	if !s.P.GTEqual(got, bk2) {
		t.Fatal("re-added member cannot decrypt")
	}
}

func TestGroupTooLarge(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 3)
	if _, _, err := s.EncryptMSK(msk, pk, ids(4), rand.Reader); !errors.Is(err, ErrGroupTooLarge) {
		t.Fatalf("got %v, want ErrGroupTooLarge", err)
	}
	if _, _, err := s.EncryptClassic(pk, ids(4), rand.Reader); !errors.Is(err, ErrGroupTooLarge) {
		t.Fatalf("got %v, want ErrGroupTooLarge", err)
	}
}

// The receiver list a member decrypts against comes from the store. One
// longer than the key covers must be refused with ErrGroupTooLarge — not
// decrypted into garbage, and not (past m + 2 names) walked off the end of
// the public key's powers inside the multi-exponentiation.
func TestDecryptRejectsReceiverListBeyondKey(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 3)
	_, ct, err := s.EncryptMSK(msk, pk, ids(3), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	uk, err := s.Extract(msk, ids(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 6, 40} {
		if _, err := s.Decrypt(pk, ids(1)[0], uk, ids(n), ct); !errors.Is(err, ErrGroupTooLarge) {
			t.Fatalf("%d receivers for m = 3: got %v, want ErrGroupTooLarge", n, err)
		}
	}
}

// Every G1 exponent Setup computes is secret-derived (g^γ, h^{γ^i}), so each
// one it counts must have taken a constant-time walk.
func TestSetupTakesOnlyConstantTimeWalks(t *testing.T) {
	s := testScheme(t)
	s.Metrics = &Metrics{}
	const m = 8
	setup(t, s, m)
	if all, ct := s.Metrics.G1Exp.Load(), s.Metrics.G1ExpFixedCT.Load(); all != m+2 || ct != all {
		t.Fatalf("Setup(%d): %d G1 exponentiations, %d of them constant-time; want %d and %d", m, all, ct, m+2, m+2)
	}
}

// The stateless re-key raises the fresh C3 to k with the variable-base walk,
// but its C1 = w^−k comes off the w table, whose walk is constant-time.
func TestStatelessRekeyTakesFixedBaseForC1(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 4)
	_, ct, err := s.EncryptMSK(msk, pk, ids(3), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s.Metrics = &Metrics{}
	if _, _, err := s.Rekey(pk, ct, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if all, ct := s.Metrics.G1Exp.Load(), s.Metrics.G1ExpFixedCT.Load(); all != 2 || ct != 1 {
		t.Fatalf("Rekey: %d G1 exponentiations, %d of them constant-time; want 2 and 1", all, ct)
	}
}

func TestEmptyGroupRejected(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 3)
	if _, _, err := s.EncryptMSK(msk, pk, nil, rand.Reader); !errors.Is(err, ErrEmptyGroup) {
		t.Fatal("empty group accepted by EncryptMSK")
	}
	if _, _, err := s.EncryptClassic(pk, nil, rand.Reader); !errors.Is(err, ErrEmptyGroup) {
		t.Fatal("empty group accepted by EncryptClassic")
	}
}

func TestHashIDProperties(t *testing.T) {
	s := testScheme(t)
	a := s.HashID("alice")
	if a.Sign() <= 0 || a.Cmp(s.P.R) >= 0 {
		t.Fatal("HashID out of Z_r* range")
	}
	if s.HashID("alice").Cmp(a) != 0 {
		t.Fatal("HashID not deterministic")
	}
	if s.HashID("bob").Cmp(a) == 0 {
		t.Fatal("HashID collision on distinct inputs")
	}
}

func TestExpandProductPoly(t *testing.T) {
	s := testScheme(t)
	zr := s.P.Zr
	group := ids(5)
	coeffs := s.expandProductPoly(group)
	if len(coeffs) != 6 {
		t.Fatalf("degree = %d, want 5", len(coeffs)-1)
	}
	if coeffs[5].Cmp(bigOne) != 0 {
		t.Fatal("leading coefficient ≠ 1")
	}
	// Evaluate at a random x and compare to the direct product.
	x := s.HashID("evaluation-point")
	eval := coeffs[len(coeffs)-1]
	for i := len(coeffs) - 2; i >= 0; i-- {
		eval = zr.Add(zr.Mul(eval, x), coeffs[i])
	}
	direct := bigOne
	for _, u := range group {
		direct = zr.Mul(direct, zr.Add(x, s.HashID(u)))
	}
	if !zr.Equal(eval, direct) {
		t.Fatal("polynomial expansion does not match direct product")
	}
}

func TestExtractDeterministic(t *testing.T) {
	s := testScheme(t)
	msk, _ := setup(t, s, 2)
	k1, err := s.Extract(msk, "carol")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.Extract(msk, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if !s.P.G1.Equal(k1.D, k2.D) {
		t.Fatal("Extract not deterministic")
	}
}

func TestExtractRejectsNilMSK(t *testing.T) {
	s := testScheme(t)
	if _, err := s.Extract(nil, "x"); !errors.Is(err, ErrBadKey) {
		t.Fatal("nil MSK accepted")
	}
}

func TestDecryptRejectsNilUserKey(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 4)
	group := ids(2)
	_, ct, _ := s.EncryptMSK(msk, pk, group, rand.Reader)
	if _, err := s.Decrypt(pk, group[0], nil, group, ct); !errors.Is(err, ErrBadKey) {
		t.Fatal("nil user key accepted")
	}
}

func TestDecryptWithDuplicateIDsInList(t *testing.T) {
	// A duplicated identity in the receiver list must not let decryption
	// silently diverge from the encrypted set.
	s := testScheme(t)
	msk, pk := setup(t, s, 8)
	group := ids(3)
	bk, ct, _ := s.EncryptMSK(msk, pk, group, rand.Reader)
	uk, _ := s.Extract(msk, group[0])
	dup := []string{group[0], group[1], group[2], group[1]}
	got, err := s.Decrypt(pk, group[0], uk, dup, ct)
	if err == nil && s.P.GTEqual(got, bk) {
		t.Fatal("decryption succeeded with a receiver list different from the encrypted set")
	}
}

func TestCiphertextSerde(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 4)
	_, ct, _ := s.EncryptMSK(msk, pk, ids(3), rand.Reader)
	enc := s.MarshalCiphertext(ct)
	if len(enc) != s.CiphertextLen() {
		t.Fatalf("ciphertext wire size %d, want %d", len(enc), s.CiphertextLen())
	}
	back, err := s.UnmarshalCiphertext(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !s.P.G1.Equal(ct.C1, back.C1) || !s.P.G1.Equal(ct.C2, back.C2) || !s.P.G1.Equal(ct.C3, back.C3) {
		t.Fatal("ciphertext round trip changed values")
	}
	if _, err := s.UnmarshalCiphertext(enc[:10]); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestUserKeySerde(t *testing.T) {
	s := testScheme(t)
	msk, _ := setup(t, s, 2)
	uk, _ := s.Extract(msk, "dave")
	back, err := s.UnmarshalUserKey(s.MarshalUserKey(uk))
	if err != nil {
		t.Fatal(err)
	}
	if !s.P.G1.Equal(uk.D, back.D) {
		t.Fatal("user key round trip changed value")
	}
}

func TestPublicKeySerde(t *testing.T) {
	s := testScheme(t)
	msk, pk := setup(t, s, 5)
	back, err := s.UnmarshalPublicKey(s.MarshalPublicKey(pk))
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxGroupSize() != pk.MaxGroupSize() {
		t.Fatal("public key size changed in round trip")
	}
	if !s.P.G1.Equal(back.W, pk.W) || !s.P.GTEqual(back.V, pk.V) {
		t.Fatal("public key round trip changed W or V")
	}
	// The deserialised key must still decrypt.
	group := ids(3)
	bk, ct, _ := s.EncryptMSK(msk, pk, group, rand.Reader)
	uk, _ := s.Extract(msk, group[0])
	got, err := s.Decrypt(back, group[0], uk, group, ct)
	if err != nil || !s.P.GTEqual(got, bk) {
		t.Fatalf("deserialised public key cannot decrypt: %v", err)
	}
	if _, err := s.UnmarshalPublicKey([]byte{0, 0}); err == nil {
		t.Fatal("truncated public key accepted")
	}
}

func TestHeaderLenMatchesPaperAt512(t *testing.T) {
	s := NewScheme(pairing.TypeA512())
	if s.HeaderLen() != 256 {
		t.Fatalf("512-bit header = %d bytes, paper reports 256", s.HeaderLen())
	}
}

func TestComplexityCountsMatchTableI(t *testing.T) {
	// Table I: EncryptMSK is O(n) Zr-mults with O(1) exponentiations;
	// classic encrypt and decrypt are O(n²); add/remove/rekey are O(1).
	s := testScheme(t)
	s.Metrics = &Metrics{}
	msk, pk := setup(t, s, 64)

	countFor := func(n int, op func(group []string)) (g1, zr int64) {
		group := ids(n)
		s.Metrics.Reset()
		op(group)
		g1e, _, _, zrm := s.Metrics.Snapshot()
		return g1e, zrm
	}

	// EncryptMSK: G1 exponentiations constant, Zr mults linear.
	g1a, zra := countFor(8, func(g []string) { _, _, _ = s.EncryptMSK(msk, pk, g, rand.Reader) })
	g1b, zrb := countFor(32, func(g []string) { _, _, _ = s.EncryptMSK(msk, pk, g, rand.Reader) })
	if g1a != g1b {
		t.Fatalf("EncryptMSK G1 exponentiations scale with n: %d vs %d", g1a, g1b)
	}
	if zrb < 3*zra {
		t.Fatalf("EncryptMSK Zr mults not linear: %d vs %d", zra, zrb)
	}

	// Classic encrypt: G1 exponentiations linear, Zr mults quadratic.
	g1a, zra = countFor(8, func(g []string) { _, _, _ = s.EncryptClassic(pk, g, rand.Reader) })
	g1b, zrb = countFor(32, func(g []string) { _, _, _ = s.EncryptClassic(pk, g, rand.Reader) })
	if g1b < 3*g1a {
		t.Fatalf("EncryptClassic G1 exponentiations not linear: %d vs %d", g1a, g1b)
	}
	if zrb < 9*zra {
		t.Fatalf("EncryptClassic Zr mults not quadratic: %d vs %d", zra, zrb)
	}

	// AddUser: constant cost regardless of group size.
	_, ct8, _ := s.EncryptMSK(msk, pk, ids(8), rand.Reader)
	_, ct32, _ := s.EncryptMSK(msk, pk, ids(32), rand.Reader)
	s.Metrics.Reset()
	s.AddUser(msk, ct8, "x@example.com")
	addSmall := s.Metrics.Total()
	s.Metrics.Reset()
	s.AddUser(msk, ct32, "x@example.com")
	addLarge := s.Metrics.Total()
	if addSmall != addLarge {
		t.Fatalf("AddUser cost varies with group size: %d vs %d", addSmall, addLarge)
	}

	// RemoveUser: constant cost regardless of group size.
	s.Metrics.Reset()
	_, _, _ = s.RemoveUser(msk, pk, ct8, ids(8)[0], rand.Reader)
	remSmall := s.Metrics.Total()
	s.Metrics.Reset()
	_, _, _ = s.RemoveUser(msk, pk, ct32, ids(32)[0], rand.Reader)
	remLarge := s.Metrics.Total()
	if remSmall != remLarge {
		t.Fatalf("RemoveUser cost varies with group size: %d vs %d", remSmall, remLarge)
	}
}
