package benchmark

import (
	"crypto/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/hybrid"
)

func newHEEnclave(t *testing.T, members []string) (*HEEnclave, *hybrid.PKI) {
	t.Helper()
	pki := hybrid.NewPKI()
	for _, m := range members {
		if err := pki.Register(m, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	p, err := enclave.NewPlatform("test-platform", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return NewHEEnclave(p, pki), pki
}

func members(n int) []string { return names(n, "member") }

func TestHEEnclaveLifecycle(t *testing.T) {
	ms := members(4)
	he, pkiReg := newHEEnclave(t, ms)
	md, err := he.EcallCreateGroup("g", ms[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(md.Entries) != 3 {
		t.Fatalf("entries = %d", len(md.Entries))
	}
	// Members decrypt the group key outside the enclave with their PKI keys.
	decryptAs := func(md *hybrid.Metadata, id string) [32]byte {
		t.Helper()
		gk, err := hybrid.NewHEPKI(pkiReg).Decrypt(md, id)
		if err != nil {
			t.Fatalf("Decrypt(%s): %v", id, err)
		}
		return gk
	}
	gk0 := decryptAs(md, ms[0])
	gk1 := decryptAs(md, ms[1])
	if gk0 != gk1 {
		t.Fatal("members disagree")
	}

	// Add: same key extended to the new member.
	md, err = he.EcallAddUser("g", ms[3])
	if err != nil {
		t.Fatal(err)
	}
	if decryptAs(md, ms[3]) != gk0 {
		t.Fatal("added member got different key")
	}

	// Remove: key rotates, revoked member loses the entry.
	md, err = he.EcallRemoveUser("g", ms[0])
	if err != nil {
		t.Fatal(err)
	}
	gkNew := decryptAs(md, ms[1])
	if gkNew == gk0 {
		t.Fatal("remove did not rotate key")
	}
	if _, err := hybrid.NewHEPKI(pkiReg).Decrypt(md, ms[0]); err == nil {
		t.Fatal("revoked member still has an entry")
	}
}

func TestHEEnclaveUnknownGroup(t *testing.T) {
	he, _ := newHEEnclave(t, members(1))
	if _, err := he.EcallAddUser("nope", "x"); err == nil {
		t.Fatal("unknown group accepted on add")
	}
	if _, err := he.EcallRemoveUser("nope", "x"); err == nil {
		t.Fatal("unknown group accepted on remove")
	}
	if _, ok := he.Metadata("nope"); ok {
		t.Fatal("metadata for unknown group")
	}
}

func TestHEEnclaveWorkingSetLinear(t *testing.T) {
	// The enclave working set grows linearly with the group — the §III-B
	// effect the EPC experiment quantifies.
	small := members(8)
	heSmall, _ := newHEEnclave(t, small)
	if _, err := heSmall.EcallCreateGroup("g", small); err != nil {
		t.Fatal(err)
	}
	peakSmall := heSmall.Enclave().Platform().EPC().PeakResident

	large := members(32)
	heLarge, _ := newHEEnclave(t, large)
	if _, err := heLarge.EcallCreateGroup("g", large); err != nil {
		t.Fatal(err)
	}
	peakLarge := heLarge.Enclave().Platform().EPC().PeakResident

	if peakLarge != 4*peakSmall {
		t.Fatalf("HE working set not linear: %d vs %d", peakSmall, peakLarge)
	}
}
