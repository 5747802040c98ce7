package enclave

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform("test-platform", rand.Reader)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func newIBBE(t *testing.T, m int) (*IBBEEnclave, *ibbe.PublicKey, []byte) {
	t.Helper()
	ie, err := NewIBBEEnclave(newPlatform(t), pairing.TypeA160())
	if err != nil {
		t.Fatalf("NewIBBEEnclave: %v", err)
	}
	pk, sealed, err := ie.EcallSetup(m)
	if err != nil {
		t.Fatalf("EcallSetup: %v", err)
	}
	return ie, pk, sealed
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("member-%03d@example.com", i)
	}
	return out
}

// decryptGK plays the honest user: IBBE-decrypt the partition broadcast key,
// then unwrap the group key.
func decryptGK(t *testing.T, ie *IBBEEnclave, pk *ibbe.PublicKey, group string, user string, partMembers []string, pc *PartitionCrypto) [32]byte {
	t.Helper()
	userKey, priv := provisionUser(t, ie, user)
	_ = priv
	bk, err := ie.Scheme().Decrypt(pk, user, userKey, partMembers, pc.CT)
	if err != nil {
		t.Fatalf("user decrypt: %v", err)
	}
	gk, err := UnwrapGK(ie.Scheme().P, bk, pc.WrappedGK, group)
	if err != nil {
		t.Fatalf("UnwrapGK: %v", err)
	}
	return gk
}

// provisionUser runs the full provisioning handshake for a user.
func provisionUser(t *testing.T, ie *IBBEEnclave, user string) (*ibbe.UserKey, *ecdh.PrivateKey) {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := ie.EcallExtractUserKey(user, priv.PublicKey())
	if err != nil {
		t.Fatalf("EcallExtractUserKey: %v", err)
	}
	uk, err := prov.Open(ie.Scheme(), ie.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatalf("ProvisionedKey.Open: %v", err)
	}
	return uk, priv
}

// createGroup runs Algorithm 1 the way core.CreateGroup drives it: one
// fresh sealed group key, then one ECALL per partition.
func createGroup(t *testing.T, ie *IBBEEnclave, group string, parts [][]string) ([]byte, []PartitionCrypto) {
	t.Helper()
	sealedGK, err := ie.EcallNewGroupKey(group)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]PartitionCrypto, len(parts))
	for i, members := range parts {
		pc, err := ie.EcallCreatePartition(group, sealedGK, members)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = *pc
	}
	return sealedGK, outs
}

func TestMeasureCodeDistinguishesVersions(t *testing.T) {
	if MeasureCode("a", "1") == MeasureCode("a", "2") {
		t.Fatal("different versions share a measurement")
	}
	if MeasureCode("a", "1") != MeasureCode("a", "1") {
		t.Fatal("measurement not deterministic")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p := newPlatform(t)
	e := p.Launch(MeasureCode("enclave", "1"))
	blob, err := e.Seal([]byte("state"), []byte("label"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Unseal(blob, []byte("label"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "state" {
		t.Fatal("round trip changed data")
	}
}

// TestSealUnsealConcurrent races first use of a fresh enclave's sealing AEAD
// and then many Seal/Unseal pairs on it; a relaunch of the same code on the
// same platform must open every blob, i.e. the cached AEAD is the same key.
func TestSealUnsealConcurrent(t *testing.T) {
	p := newPlatform(t)
	m := MeasureCode("enclave", "1")
	e := p.Launch(m)
	const workers, rounds = 8, 25
	blobs := make([][]byte, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			label := []byte(fmt.Sprintf("label-%d", w))
			for i := 0; i < rounds; i++ {
				data := []byte(fmt.Sprintf("state-%d-%d", w, i))
				blob, err := e.Seal(data, label)
				if err != nil {
					errs <- err
					return
				}
				out, err := e.Unseal(blob, label)
				if err != nil {
					errs <- err
					return
				}
				if string(out) != string(data) {
					errs <- fmt.Errorf("worker %d round %d: round trip changed data", w, i)
					return
				}
				blobs[w] = blob
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	relaunched := p.Launch(m)
	for w, blob := range blobs {
		out, err := relaunched.Unseal(blob, []byte(fmt.Sprintf("label-%d", w)))
		if err != nil {
			t.Fatalf("relaunched enclave cannot open worker %d's blob: %v", w, err)
		}
		if want := fmt.Sprintf("state-%d-%d", w, rounds-1); string(out) != want {
			t.Fatalf("worker %d: opened %q, want %q", w, out, want)
		}
	}
}

func TestUnsealRejectsDifferentEnclave(t *testing.T) {
	p := newPlatform(t)
	e1 := p.Launch(MeasureCode("enclave", "1"))
	e2 := p.Launch(MeasureCode("enclave", "2"))
	blob, _ := e1.Seal([]byte("secret"), []byte("l"))
	if _, err := e2.Unseal(blob, []byte("l")); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatal("different enclave code unsealed the blob")
	}
}

func TestUnsealRejectsDifferentPlatform(t *testing.T) {
	m := MeasureCode("enclave", "1")
	e1 := newPlatform(t).Launch(m)
	e2 := newPlatform(t).Launch(m)
	blob, _ := e1.Seal([]byte("secret"), []byte("l"))
	if _, err := e2.Unseal(blob, []byte("l")); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatal("different platform unsealed the blob")
	}
}

func TestUnsealRejectsWrongLabel(t *testing.T) {
	e := newPlatform(t).Launch(MeasureCode("enclave", "1"))
	blob, _ := e.Seal([]byte("secret"), []byte("label-a"))
	if _, err := e.Unseal(blob, []byte("label-b")); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatal("wrong label accepted")
	}
}

func TestEcallsRequireSetup(t *testing.T) {
	ie, err := NewIBBEEnclave(newPlatform(t), pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ie.EcallCreatePartition("g", nil, members(2)); !errors.Is(err, ErrEnclaveNotInitialized) {
		t.Fatal("EcallCreatePartition before setup succeeded")
	}
	priv, _ := ecdh.P256().GenerateKey(rand.Reader)
	if _, err := ie.EcallExtractUserKey("u", priv.PublicKey()); !errors.Is(err, ErrEnclaveNotInitialized) {
		t.Fatal("EcallExtractUserKey before setup succeeded")
	}
}

func TestCreateGroupAndUserDecrypt(t *testing.T) {
	ie, pk, _ := newIBBE(t, 8)
	parts := [][]string{members(4)[:2], members(4)[2:]}
	_, outs := createGroup(t, ie, "group-1", parts)
	// A member of each partition recovers the same group key.
	gk0 := decryptGK(t, ie, pk, "group-1", parts[0][0], parts[0], &outs[0])
	gk1 := decryptGK(t, ie, pk, "group-1", parts[1][1], parts[1], &outs[1])
	if gk0 != gk1 {
		t.Fatal("partitions wrap different group keys")
	}
}

func TestCreatePartitionJoinsExistingGroup(t *testing.T) {
	ie, pk, _ := newIBBE(t, 8)
	parts := [][]string{members(2)}
	sealedGK, outs := createGroup(t, ie, "g", parts)
	newcomer := "late@example.com"
	pc, err := ie.EcallCreatePartition("g", sealedGK, []string{newcomer})
	if err != nil {
		t.Fatal(err)
	}
	gkOld := decryptGK(t, ie, pk, "g", parts[0][0], parts[0], &outs[0])
	gkNew := decryptGK(t, ie, pk, "g", newcomer, []string{newcomer}, pc)
	if gkOld != gkNew {
		t.Fatal("new partition wraps a different group key")
	}
}

func TestCreatePartitionRejectsForeignSealedKey(t *testing.T) {
	ie, _, _ := newIBBE(t, 8)
	sealedGK, _ := createGroup(t, ie, "group-a", [][]string{members(2)})
	// The sealed key is bound to its group label.
	if _, err := ie.EcallCreatePartition("group-b", sealedGK, []string{"x"}); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatal("sealed key accepted under a different group label")
	}
}

func TestAddUserToPartition(t *testing.T) {
	ie, pk, _ := newIBBE(t, 8)
	base := members(3)
	_, outs := createGroup(t, ie, "g", [][]string{base})
	joiner := "joiner@example.com"
	newCT, err := ie.EcallAddUsersToPartition(outs[0].CT, []string{joiner})
	if err != nil {
		t.Fatal(err)
	}
	extended := append(append([]string{}, base...), joiner)
	pc := &PartitionCrypto{CT: newCT, WrappedGK: outs[0].WrappedGK} // y unchanged
	gkJoiner := decryptGK(t, ie, pk, "g", joiner, extended, pc)
	gkOld := decryptGK(t, ie, pk, "g", base[0], extended, pc)
	if gkJoiner != gkOld {
		t.Fatal("joiner sees a different group key")
	}
}

func TestRemoveUserRekeysEverything(t *testing.T) {
	ie, pk, _ := newIBBE(t, 8)
	p0, p1 := members(4)[:2], members(4)[2:]
	_, outs := createGroup(t, ie, "g", [][]string{p0, p1})
	// Remove p0[1]: Algorithm 3 as the core engine drives it — one fresh
	// sealed key, then one ECALL per partition.
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	affected, err := ie.EcallRemoveUsersFromPartition("g", sealedGK, outs[0].CT, []string{p0[1]})
	if err != nil {
		t.Fatal(err)
	}
	other, err := ie.EcallRekeyPartition("g", sealedGK, outs[1].CT)
	if err != nil {
		t.Fatal(err)
	}
	remaining := []string{p0[0]}
	gkA := decryptGK(t, ie, pk, "g", p0[0], remaining, affected)
	gkB := decryptGK(t, ie, pk, "g", p1[0], p1, other)
	if gkA != gkB {
		t.Fatal("partitions disagree on the new group key")
	}
	// The revoked user cannot decrypt the new metadata with her key.
	rkUK, _ := provisionUser(t, ie, p0[1])
	if bk, err := ie.Scheme().Decrypt(pk, p0[0], rkUK, remaining, affected.CT); err == nil {
		if _, err := UnwrapGK(ie.Scheme().P, bk, affected.WrappedGK, "g"); err == nil {
			t.Fatal("revoked user recovered the new group key")
		}
	}
}

func TestRemoveLastUserDropsPartition(t *testing.T) {
	// When a partition empties, the core engine deletes its record and the
	// enclave only re-keys the surviving partitions: the emptied ciphertext
	// is simply never fed back in. The survivors still rotate to a fresh key.
	ie, pk, _ := newIBBE(t, 8)
	solo := []string{"solo@example.com"}
	other := members(2)
	_, outs := createGroup(t, ie, "g", [][]string{solo, other})
	gkOld := decryptGK(t, ie, pk, "g", other[0], other, &outs[1])
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	surv, err := ie.EcallRekeyPartition("g", sealedGK, outs[1].CT)
	if err != nil {
		t.Fatal(err)
	}
	gk := decryptGK(t, ie, pk, "g", other[0], other, surv)
	if gk == [32]byte{} || gk == gkOld {
		t.Fatal("survivors did not rotate to a fresh group key")
	}
}

func TestRekeyGroupRotatesKey(t *testing.T) {
	ie, pk, _ := newIBBE(t, 8)
	grp := members(3)
	_, outs := createGroup(t, ie, "g", [][]string{grp})
	gk1 := decryptGK(t, ie, pk, "g", grp[0], grp, &outs[0])
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := ie.EcallRekeyPartition("g", sealedGK, outs[0].CT)
	if err != nil {
		t.Fatal(err)
	}
	gk2 := decryptGK(t, ie, pk, "g", grp[0], grp, out2)
	if gk1 == gk2 {
		t.Fatal("rekey did not rotate the group key")
	}
}

func TestRestoreAfterRestart(t *testing.T) {
	platform := newPlatform(t)
	ie1, err := NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	pk, sealedMSK, err := ie1.EcallSetup(8)
	if err != nil {
		t.Fatal(err)
	}
	grp := members(2)
	_, outs := createGroup(t, ie1, "g", [][]string{grp})

	// "Restart": a new enclave instance with the same code measurement on the
	// same platform restores from the sealed master secret.
	ie2, err := NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	if err := ie2.EcallRestore(sealedMSK, pk); err != nil {
		t.Fatalf("EcallRestore: %v", err)
	}
	// The restored enclave can extend the old group's ciphertext.
	newCT, err := ie2.EcallAddUsersToPartition(outs[0].CT, []string{"post-restart@example.com"})
	if err != nil {
		t.Fatal(err)
	}
	extended := append(append([]string{}, grp...), "post-restart@example.com")
	// User keys extracted before and after the restart are interchangeable.
	uk, _ := provisionUser(t, ie1, grp[0])
	bk, err := ie2.Scheme().Decrypt(pk, grp[0], uk, extended, newCT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnwrapGK(ie2.Scheme().P, bk, outs[0].WrappedGK, "g"); err != nil {
		t.Fatalf("cross-restart decrypt failed: %v", err)
	}
}

func TestRestoreRejectsForeignBlob(t *testing.T) {
	ie, pk, _ := newIBBE(t, 4)
	other, err := NewIBBEEnclave(newPlatform(t), pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	_, sealed, err := ie.EcallSetup(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.EcallRestore(sealed, pk); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatal("foreign platform restored the master secret")
	}
}

func TestProvisionedKeySignatureChecked(t *testing.T) {
	ie, _, _ := newIBBE(t, 4)
	priv, _ := ecdh.P256().GenerateKey(rand.Reader)
	prov, err := ie.EcallExtractUserKey("eve@example.com", priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	// Tampered box must be rejected before decryption.
	prov.Box[len(prov.Box)-1] ^= 1
	if _, err := prov.Open(ie.Scheme(), ie.IdentityPublicKey(), priv); err == nil {
		t.Fatal("tampered provisioned key accepted")
	}
}

func TestProvisionedKeyWrongEnclaveKey(t *testing.T) {
	ie, _, _ := newIBBE(t, 4)
	rogue, err := NewIBBEEnclave(newPlatform(t), pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	priv, _ := ecdh.P256().GenerateKey(rand.Reader)
	prov, err := ie.EcallExtractUserKey("u", priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := prov.Verify(rogue.IdentityPublicKey()); err == nil {
		t.Fatal("signature verified under the wrong enclave key")
	}
}

func TestEPCAccounting(t *testing.T) {
	ie, _, _ := newIBBE(t, 16)
	createGroup(t, ie, "g", [][]string{members(16)})
	stats := ie.Enclave().Platform().EPC()
	if stats.PeakResident == 0 {
		t.Fatal("ECALLs did not register EPC usage")
	}
	if stats.Resident != 0 {
		t.Fatalf("resident memory leaked: %d bytes", stats.Resident)
	}
}

func TestEPCPaging(t *testing.T) {
	p := newPlatform(t)
	e := p.Launch(MeasureCode("x", "1"))
	e.EPCTouch(DefaultEPCBytes+4096, func() {})
	stats := p.EPC()
	if stats.PageFaults == 0 || stats.PagedBytes == 0 {
		t.Fatal("exceeding the EPC limit did not record paging")
	}
}

func TestMSKSerdeRejectsGarbage(t *testing.T) {
	s := ibbe.NewScheme(pairing.TypeA160())
	if _, err := unmarshalMSK(s, []byte{1, 2, 3}); err == nil {
		t.Fatal("short MSK accepted")
	}
}

func TestIBBEEnclaveWorkingSetBoundedByPartition(t *testing.T) {
	// Creating more partitions must not grow the peak working set: the
	// enclave streams one partition at a time.
	ie1, _, _ := newIBBE(t, 4)
	createGroup(t, ie1, "g", [][]string{members(4)})
	peak1 := ie1.Enclave().Platform().EPC().PeakResident

	ie8, _, _ := newIBBE(t, 4)
	parts := make([][]string, 8)
	all := make([]string, 32)
	for i := range all {
		all[i] = members(32)[i]
	}
	for i := range parts {
		parts[i] = all[i*4 : (i+1)*4]
	}
	createGroup(t, ie8, "g", parts)
	peak8 := ie8.Enclave().Platform().EPC().PeakResident

	if peak8 > 2*peak1 {
		t.Fatalf("IBBE working set grew with partition count: %d vs %d", peak1, peak8)
	}
}
