package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/kdf"
)

// sealOverhead is what sealing adds to a plaintext: GCM nonce and tag.
func sealOverhead(t *testing.T, ie *IBBEEnclave) int {
	t.Helper()
	blob, err := ie.enc.Seal(nil, []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	return len(blob)
}

// The handle-taking ECALLs compute what the stateless ones compute: an add
// gives the same header byte for byte and keeps yᵢ, so the joiner decrypts the
// old yᵢ under the new header; a removal from the new handle serves the
// survivors and not the leaver; a plain re-key keeps C3.
func TestHandleECALLsMatchStatelessForms(t *testing.T) {
	ie, pk, _ := newIBBE(t, 8)
	s := ie.Scheme()
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	roster := members(4)
	pc, err := ie.EcallCreatePartition("g", sealedGK, roster)
	if err != nil {
		t.Fatal(err)
	}
	if want := sealOverhead(t, ie) + kdf.KeySize + s.PartitionStateLen(); len(pc.WrapHandle) != want {
		t.Fatalf("handle is %d bytes, want wk ‖ k ‖ Π sealed = %d", len(pc.WrapHandle), want)
	}
	gk := decryptGK(t, ie, pk, "g", roster[0], roster, pc)

	joiners := []string{"joiner-a@example.com", "joiner-b@example.com"}
	ct, handle, err := ie.EcallAddUsersWithHandle("g", pc.CT, pc.WrapHandle, joiners)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ie.EcallAddUsersToPartition(pc.CT, joiners)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.MarshalCiphertext(ct), s.MarshalCiphertext(ref)) {
		t.Fatal("handle-taking add differs from the stateless add")
	}
	if bytes.Equal(handle, pc.WrapHandle) {
		t.Fatal("add returned the old handle: the grown Π is not sealed anywhere")
	}
	full := append(append([]string(nil), roster...), joiners...)
	added := &PartitionCrypto{CT: ct, WrappedGK: pc.WrappedGK, WrapHandle: handle}
	if decryptGK(t, ie, pk, "g", joiners[1], full, added) != gk {
		t.Fatal("joiner does not open the unchanged yᵢ")
	}

	sealedGK2, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	leaver, survivors := full[0], full[1:]
	rm, err := ie.EcallRekeyWithHandle("g", sealedGK2, handle, []string{leaver})
	if err != nil {
		t.Fatal(err)
	}
	gk2 := decryptGK(t, ie, pk, "g", joiners[0], survivors, rm)
	if gk2 == gk {
		t.Fatal("removal kept the old group key")
	}
	uk, _ := provisionUser(t, ie, leaver)
	bk, err := s.Decrypt(pk, leaver, uk, append([]string{leaver}, survivors...), rm.CT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnwrapGK(s.P, bk, rm.WrappedGK, "g"); err == nil {
		t.Fatal("the leaver opens the removal's yᵢ")
	}

	rk, err := ie.EcallRekeyWithHandle("g", sealedGK2, rm.WrapHandle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.P.G1.Equal(rk.CT.C3, rm.CT.C3) || s.P.G1.Equal(rk.CT.C2, rm.CT.C2) {
		t.Fatal("a plain re-key must keep C3 and rotate C2")
	}
	if decryptGK(t, ie, pk, "g", survivors[2], survivors, rk) != gk2 {
		t.Fatal("re-keyed partition wraps another group key")
	}
}

// Every handle the handle-taking ECALLs cannot use is refused with a typed
// error and no output: a wrap-key-only handle (a stateless ECALL's, a
// threshold shard's, or one sealed before handles carried exponents), a
// truncated one, another group's, and ones whose sealed state has the wrong
// length or an exponent outside [1, r−1]. The re-wrap sweep, which needs only
// the wrap key, takes both well-formed forms.
func TestHandleDecodingFailsClosed(t *testing.T) {
	ie, _, _ := newIBBE(t, 8)
	s := ie.Scheme()
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := ie.EcallCreatePartition("g", sealedGK, members(3))
	if err != nil {
		t.Fatal(err)
	}
	stateless, err := ie.EcallRekeyPartition("g", sealedGK, pc.CT)
	if err != nil {
		t.Fatal(err)
	}
	otherGK, err := ie.EcallNewGroupKey("other")
	if err != nil {
		t.Fatal(err)
	}
	other, err := ie.EcallCreatePartition("other", otherGK, members(3))
	if err != nil {
		t.Fatal(err)
	}
	seal := func(parts ...[]byte) []byte {
		h, err := ie.enc.Seal(bytes.Join(parts, nil), wrapHandleLabel("g"))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	n := s.P.Zr.ByteLen()
	wk, zero := make([]byte, kdf.KeySize), make([]byte, n)
	one := s.P.Zr.ToBytes(big.NewInt(1))
	r := s.P.R.FillBytes(make([]byte, n))
	for name, c := range map[string]struct {
		handle []byte
		want   error
	}{
		"wrap-key-only handle":   {stateless.WrapHandle, ErrStatelessHandle},
		"truncated handle":       {pc.WrapHandle[:len(pc.WrapHandle)-1], ErrBadHandle},
		"empty handle":           {nil, ErrBadHandle},
		"another group's handle": {other.WrapHandle, ErrBadHandle},
		"wrap key and k only":    {seal(wk, one), ErrBadHandle},
		"k = 0":                  {seal(wk, zero, one), ErrBadHandle},
		"Π = 0":                  {seal(wk, one, zero), ErrBadHandle},
		"k = r":                  {seal(wk, r, one), ErrBadHandle},
		"Π = r":                  {seal(wk, one, r), ErrBadHandle},
	} {
		ct, h, err := ie.EcallAddUsersWithHandle("g", pc.CT, c.handle, []string{"joiner@example.com"})
		if !errors.Is(err, c.want) || ct != nil || h != nil {
			t.Errorf("add from %s: %v (output %v), want %v and none", name, err, ct != nil || h != nil, c.want)
		}
		for _, removed := range [][]string{nil, members(1)} {
			if out, err := ie.EcallRekeyWithHandle("g", sealedGK, c.handle, removed); !errors.Is(err, c.want) || out != nil {
				t.Errorf("re-key (removing %v) from %s: %v, want %v and no output", removed, name, err, c.want)
			}
		}
	}
	if !errors.Is(ErrStatelessHandle, ErrBadHandle) {
		t.Fatal("ErrStatelessHandle is not an ErrBadHandle")
	}

	if ys, err := ie.EcallRewrapPartitions("g", sealedGK, [][]byte{pc.WrapHandle, stateless.WrapHandle}); err != nil || len(ys) != 2 {
		t.Fatalf("re-wrap over both handle forms: %v", err)
	}
	for name, h := range map[string][]byte{
		"truncated handle":       pc.WrapHandle[:len(pc.WrapHandle)-1],
		"another group's handle": other.WrapHandle,
		"wrap key and k only":    seal(wk, one),
	} {
		if _, err := ie.EcallRewrapPartitions("g", sealedGK, [][]byte{h}); !errors.Is(err, ErrBadHandle) {
			t.Errorf("re-wrap over %s: %v, want ErrBadHandle", name, err)
		}
	}
}

// A threshold shard has no γ: the partitions it builds get wrap-key-only
// handles, which the re-wrap sweep opens, and the handle-taking ECALLs refuse
// with ErrThresholdMode before they read the handle.
func TestThresholdHandlesCarryNoExponents(t *testing.T) {
	encls, _, ids := dealTestShares(t, newPlatform(t), 3)
	ie := encls[ids[0]]
	if ie.HasMasterSecret() {
		t.Fatal("the dealer kept γ")
	}
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	pc, err := ie.EcallCreatePartition("g", sealedGK, members(3))
	if err != nil {
		t.Fatal(err)
	}
	if want := sealOverhead(t, ie) + kdf.KeySize; len(pc.WrapHandle) != want {
		t.Fatalf("threshold handle is %d bytes, want the sealed wrap key alone = %d", len(pc.WrapHandle), want)
	}
	wk, err := handleWK(ie, "g", pc.WrapHandle)
	if err != nil {
		t.Fatal(err)
	}
	gk := plainGK(t, ie, "g", sealedGK)
	for _, path := range []string{"miss", "hit"} {
		ys, err := ie.EcallRewrapPartitions("g", sealedGK, [][]byte{pc.WrapHandle})
		if err != nil {
			t.Fatalf("re-wrap over a threshold handle (%s): %v", path, err)
		}
		if got, err := UnwrapGKWithKey(wk, ys[0], "g"); err != nil || got != gk {
			t.Fatalf("threshold yᵢ (%s) does not open under its wrap key: %v", path, err)
		}
	}
	if _, _, err := ie.EcallAddUsersWithHandle("g", pc.CT, pc.WrapHandle, []string{"j@example.com"}); !errors.Is(err, ErrThresholdMode) {
		t.Fatalf("threshold add from a handle: %v", err)
	}
	if _, err := ie.EcallRekeyWithHandle("g", sealedGK, pc.WrapHandle, nil); !errors.Is(err, ErrThresholdMode) {
		t.Fatalf("threshold re-key from a handle: %v", err)
	}
}

// With the re-wrap table warm, the sweep fails closed exactly as it does
// cold: a handle cached for one group is refused for another, and bit-flipped
// or truncated copies of a cached handle are refused, all with ErrBadHandle.
// On a miss and on a hit, for a handle with exponents and a wrap-key-only
// one, every yᵢ opens under its own partition's wrap key and under no other
// partition's, the yᵢ of one call carry distinct nonces, and each yᵢ is
// clipped to its own bytes.
func TestRewrapWarmTableFailsClosed(t *testing.T) {
	ie, _, _ := newIBBE(t, 8)
	sealedGK, err := ie.EcallNewGroupKey("A")
	if err != nil {
		t.Fatal(err)
	}
	gk := plainGK(t, ie, "A", sealedGK)
	pc, err := ie.EcallCreatePartition("A", sealedGK, members(3))
	if err != nil {
		t.Fatal(err)
	}
	stateless, err := ie.EcallRekeyPartition("A", sealedGK, pc.CT)
	if err != nil {
		t.Fatal(err)
	}
	forms := [][]byte{pc.WrapHandle, stateless.WrapHandle}
	var wks [2][kdf.KeySize]byte
	for i, h := range forms {
		if wks[i], err = handleWK(ie, "A", h); err != nil {
			t.Fatal(err)
		}
		if !ie.wraps.cached("A", h) {
			t.Fatalf("handle form %d has no table entry after the ECALL that sealed it", i)
		}
	}
	// As a restarted enclave holds it: the handles in the store, none cached.
	ie.wraps.reset()
	// Each handle twice: the first call misses on the first copy and hits on
	// the second; the second call hits on both.
	handles := [][]byte{forms[0], forms[1], forms[0], forms[1]}
	for _, warm := range []bool{false, true} {
		for i, h := range forms {
			if ie.wraps.cached("A", h) != warm {
				t.Fatalf("handle form %d cached = %v before the call, want %v", i, !warm, warm)
			}
		}
		ys, err := ie.EcallRewrapPartitions("A", sealedGK, handles)
		if err != nil {
			t.Fatal(err)
		}
		nonces := map[string]bool{}
		for i, y := range ys {
			own := i % 2
			if got, err := UnwrapGKWithKey(wks[own], y, "A"); err != nil || got != gk {
				t.Fatalf("warm=%v: y%d does not open under its own wrap key: %v", warm, i, err)
			}
			if _, err := UnwrapGKWithKey(wks[1-own], y, "A"); err == nil {
				t.Fatalf("warm=%v: y%d opens under another partition's wrap key", warm, i)
			}
			nonces[string(y[:kdf.NonceSize])] = true
		}
		if len(nonces) != len(ys) {
			t.Fatalf("warm=%v: %d yᵢ carry %d distinct nonces", warm, len(ys), len(nonces))
		}
		y1 := bytes.Clone(ys[1])
		_ = append(ys[0], bytes.Repeat([]byte{0xff}, len(y1))...)
		if !bytes.Equal(ys[1], y1) {
			t.Fatalf("warm=%v: appending to y0 overwrote y1", warm)
		}
	}

	sealedB, err := ie.EcallNewGroupKey("B")
	if err != nil {
		t.Fatal(err)
	}
	if ys, err := ie.EcallRewrapPartitions("B", sealedB, [][]byte{pc.WrapHandle}); !errors.Is(err, ErrBadHandle) || ys != nil {
		t.Fatalf("a handle cached for group A re-wrapped for group B: %v", err)
	}
	h := pc.WrapHandle
	tampered := map[string][]byte{
		"truncated by one byte":  h[:len(h)-1],
		"truncated to the nonce": h[:kdf.NonceSize],
		"extended by one byte":   append(bytes.Clone(h), 0),
	}
	for _, pos := range []int{0, kdf.NonceSize, len(h) / 2, len(h) - 1} {
		c := bytes.Clone(h)
		c[pos] ^= 0x01
		tampered[fmt.Sprintf("bit flipped at byte %d", pos)] = c
	}
	for name, c := range tampered {
		if ys, err := ie.EcallRewrapPartitions("A", sealedGK, [][]byte{c}); !errors.Is(err, ErrBadHandle) || ys != nil {
			t.Errorf("re-wrap over the cached handle %s: %v, want ErrBadHandle and no output", name, err)
		}
		if ie.wraps.cached("A", c) {
			t.Errorf("the cached handle %s got an entry", name)
		}
	}
	if !ie.wraps.cached("A", h) {
		t.Fatal("refusing tampered copies evicted the genuine handle")
	}
}

// An add re-seals its partition's handle over the same wrap key and enters
// that handle's cipher in the re-wrap table, whether or not the old handle
// had one, so the revocation after the add re-wraps it without an unseal,
// and the yᵢ it seals opens under the partition's wrap key.
func TestAddFillsTheRewrapTable(t *testing.T) {
	ie, _, _ := newIBBE(t, 8)
	sealedGK, err := ie.EcallNewGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	gk := plainGK(t, ie, "g", sealedGK)
	pc, err := ie.EcallCreatePartition("g", sealedGK, members(2))
	if err != nil {
		t.Fatal(err)
	}
	wk, err := handleWK(ie, "g", pc.WrapHandle)
	if err != nil {
		t.Fatal(err)
	}
	ct, handle := pc.CT, pc.WrapHandle
	ie.wraps.reset() // the create entered its handle; start the first add cold
	for i, warm := range []bool{false, true} {
		if ie.wraps.cached("g", handle) != warm {
			t.Fatalf("add %d: old handle cached = %v, want %v", i, !warm, warm)
		}
		if ct, handle, err = ie.EcallAddUsersWithHandle("g", ct, handle, []string{fmt.Sprintf("joiner-%d@example.com", i)}); err != nil {
			t.Fatal(err)
		}
		if !ie.wraps.cached("g", handle) {
			t.Fatalf("add %d: the handle it returned has no table entry", i)
		}
		hits, misses := ie.WrapTableStats()
		ys, err := ie.EcallRewrapPartitions("g", sealedGK, [][]byte{handle})
		if err != nil {
			t.Fatal(err)
		}
		if h, m := ie.WrapTableStats(); h != hits+1 || m != misses {
			t.Fatalf("add %d: re-wrap of the new handle took %d hits and %d misses, want 1 hit", i, h-hits, m-misses)
		}
		if got, err := UnwrapGKWithKey(wk, ys[0], "g"); err != nil || got != gk {
			t.Fatalf("add %d: the re-wrapped yᵢ does not open under the partition's wrap key: %v", i, err)
		}
	}
}
