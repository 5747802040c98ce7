package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/partition"
)

// An add extends the partition from the exponents its handle seals: the
// header changes, yᵢ stays byte for byte, so a member's kept wrap key still
// opens it and no reader decrypts again; the handle is re-sealed with the
// joiner's factor, which the next removal from that partition relies on.
func TestAddKeepsWrappedKeyAndResealsHandle(t *testing.T) {
	e := newEnv(t, 4)
	e.mgr.DisableRepartition = true
	members := users(6) // p000001 full, p000002 holds members 4 and 5
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	before := up.Put["p000002"]
	reader := e.clientFor(t, members[4])
	gk, wk, err := reader.DecryptRecordKeys("g", before)
	if err != nil {
		t.Fatal(err)
	}

	const joiner = "joiner@example.com"
	up2, err := e.mgr.AddUser("g", joiner)
	if err != nil {
		t.Fatal(err)
	}
	after := up2.Put["p000002"]
	if after == nil || len(up2.Put) != 1 {
		t.Fatalf("add republished %v, want p000002 alone", up2.Put)
	}
	if !bytes.Equal(after.WrappedGK, before.WrappedGK) {
		t.Fatal("add changed yᵢ")
	}
	if bytes.Equal(after.WrapHandle, before.WrapHandle) {
		t.Fatal("add kept the old handle")
	}
	if bytes.Equal(ctBytes(e, after), ctBytes(e, before)) {
		t.Fatal("add kept the old header")
	}
	if got, err := reader.Unwrap("g", after.WrappedGK, wk); err != nil || got != gk {
		t.Fatalf("a kept wrap key does not open yᵢ after the add: %v", err)
	}
	if decryptAs(t, e, "g", joiner, up2.Put) != gk {
		t.Fatal("the joiner derives another group key")
	}

	// The removal derives its header from the handle the add sealed: had the
	// joiner's factor been lost, the joiner could not decrypt now.
	up3, err := e.mgr.RemoveUser("g", members[4])
	if err != nil {
		t.Fatal(err)
	}
	gk3 := decryptAs(t, e, "g", joiner, up3.Put)
	if gk3 == gk || decryptAs(t, e, "g", members[5], up3.Put) != gk3 {
		t.Fatal("survivors of the removal disagree, or kept the old key")
	}
	if _, err := reader.Unwrap("g", up3.Put["p000002"].WrappedGK, wk); err == nil {
		t.Fatal("the leaver's kept wrap key opens the new yᵢ")
	}
}

// A handle that holds the wrap key alone carries no exponents to derive a
// header from. An add into its partition and a removal from it fail with the
// enclave's typed error, mint no partition in its place, and leave the group
// as it was.
func TestStatelessHandleFailsTheOp(t *testing.T) {
	e := newEnv(t, 4)
	e.mgr.DisableRepartition = true
	members := users(6) // p000001 full, p000002 holds members 4 and 5
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	g := e.mgr.groups["g"]
	legacy, err := e.encl.EcallRekeyPartition("g", g.sealedGK, up.Put["p000002"].CT)
	if err != nil {
		t.Fatal(err)
	}
	g.idx.SetEnvelope("p000002", legacy.WrappedGK, legacy.WrapHandle)
	g.pages.Put(&partition.Page{ID: "p000002", Members: up.Put["p000002"].Members, Payload: legacy.CT})
	counts := ecallCounts(e)
	for name, op := range map[string]func() (*Update, error){
		"add":    func() (*Update, error) { return e.mgr.AddUser("g", "joiner@example.com") },
		"remove": func() (*Update, error) { return e.mgr.RemoveUser("g", members[4]) },
	} {
		if _, err := op(); !errors.Is(err, enclave.ErrStatelessHandle) {
			t.Errorf("%s over a wrap-key-only handle: %v, want ErrStatelessHandle", name, err)
		}
	}
	if counts["create_partition"] != 0 {
		t.Fatalf("ECALLs over a wrap-key-only handle: %v, want no rebuild", counts)
	}
	if got, _ := e.mgr.Members("g"); len(got) != len(members) {
		t.Fatalf("membership after the failed ops: %v, want %v", got, members)
	}
}

// With the master secret, add, remove and re-key in the product run no
// variable-base G1 exponentiation: every G1 exponent — all of them derived
// from γ or from a broadcast secret k — takes the constant-time fixed-base
// walk.
func TestMembershipOpsTakeOnlyConstantTimeFixedBase(t *testing.T) {
	e := newEnv(t, 3)
	e.mgr.DisableRepartition = true
	members := users(8) // 3 + 3 + 2
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	ops := &ibbe.Metrics{}
	e.encl.Scheme().Metrics = ops
	for name, op := range map[string]func() (*Update, error){
		"add":    func() (*Update, error) { return e.mgr.AddUser("g", "joiner@example.com") },
		"remove": func() (*Update, error) { return e.mgr.RemoveUser("g", members[0]) },
		"re-key": func() (*Update, error) { return e.mgr.RekeyGroup("g") },
	} {
		ops.Reset()
		if _, err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if all, ct := ops.G1Exp.Load(), ops.G1ExpFixedCT.Load(); all == 0 || all != ct {
			t.Errorf("%s: %d G1 exponentiations, %d of them constant-time fixed-base", name, all, ct)
		}
	}
}

// The handle sits in the group header and the roster in the partition
// record. A pair torn between two operations — header after an add, record
// before it — must be refused by the roster check before the partition's ECALL
// could derive a header from a Π the roster does not match.
func TestTornHeaderRecordPairRefusedBeforeECALL(t *testing.T) {
	e := newEnv(t, 4)
	e.mgr.DisableRepartition = true
	members := users(6) // p000001 full, p000002 holds members 4 and 5
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	dir := newMemDir(t, e)
	dir.apply(up)
	stale := dir.objects["p000002"]
	up2, err := e.mgr.AddUser("g", "joiner-1@example.com")
	if err != nil {
		t.Fatal(err)
	}
	dir.apply(up2)
	dir.objects["p000002"] = stale // header after the add, record before it

	for name, op := range map[string]func(*Manager) (*Update, error){
		"add":    func(m *Manager) (*Update, error) { return m.AddUser("g", "joiner-2@example.com") },
		"remove": func(m *Manager) (*Update, error) { return m.RemoveUser("g", members[4]) },
	} {
		standby, err := NewManager(e.encl, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		standby.DisableRepartition = true
		dir.restore(standby, "g")
		counts := ecallCounts(e)
		if _, err := op(standby); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s over a torn pair: %v, want ErrBadRecord", name, err)
		}
		if counts["add_users"]+counts["remove_users"]+counts["rekey"] != 0 {
			t.Errorf("%s over a torn pair reached the partition's ECALL: %v", name, counts)
		}
	}
}

// A re-partition the heuristic starts inside a removal and the enclave then
// fails leaves the removal standing, is counted, and fires again on the next
// removal.
func TestFailedHeuristicRepartitionIsCounted(t *testing.T) {
	platform, err := enclave.NewPlatform("test", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := enclave.NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	pk, sealedMSK, err := ie.EcallSetup(2)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(ie, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{mgr: mgr, encl: ie}
	members := users(6) // three full partitions
	if _, err := mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.RemoveUser("g", members[0]); err != nil { // two of three still two-thirds full
		t.Fatal(err)
	}
	// The second removal leaves one well-filled partition of three, so the
	// heuristic fires; the enclave loses its public key right after the
	// removal's own ECALL, failing the re-partition's first one.
	ie.Obs = func(call string, _ float64) {
		if call == "remove_users" {
			if err := ie.EcallRestore(sealedMSK, nil); err != nil {
				t.Error(err)
			}
		}
	}
	up, err := mgr.RemoveUser("g", members[2])
	ie.Obs = nil
	if err != nil {
		t.Fatalf("the removal failed with its re-partition: %v", err)
	}
	if err := ie.EcallRestore(sealedMSK, pk); err != nil {
		t.Fatal(err)
	}
	if mgr.RepartitionFailures() != 1 || mgr.Repartitions() != 0 {
		t.Fatalf("re-partitions: %d failed, %d done; want 1 and 0", mgr.RepartitionFailures(), mgr.Repartitions())
	}
	if n, _ := mgr.PartitionCount("g"); n != 3 || up.SealedGK == nil {
		t.Fatalf("after the failed re-partition: %d partitions, sealed key published %v", n, up.SealedGK != nil)
	}
	recs := e.records(t, "g")
	if _, ok := e.clientFor(t, members[2]).FindOwnRecord(recs); ok {
		t.Fatal("the removal did not stand")
	}
	if decryptAs(t, e, "g", members[1], recs) != decryptAs(t, e, "g", members[3], recs) {
		t.Fatal("survivors disagree after the failed re-partition")
	}

	if _, err := mgr.RemoveUser("g", members[4]); err != nil {
		t.Fatal(err)
	}
	if mgr.RepartitionFailures() != 1 || mgr.Repartitions() != 1 {
		t.Fatalf("next removal: %d failed, %d done; want 1 and 1", mgr.RepartitionFailures(), mgr.Repartitions())
	}
}
