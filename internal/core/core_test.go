package core

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// env bundles a ready manager plus the enclave behind it.
type env struct {
	mgr  *Manager
	encl *enclave.IBBEEnclave
}

func newEnv(t testing.TB, capacity int) *env {
	t.Helper()
	platform, err := enclave.NewPlatform("test", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := enclave.NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ie.EcallSetup(capacity); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(ie, capacity, 42)
	if err != nil {
		t.Fatal(err)
	}
	return &env{mgr: mgr, encl: ie}
}

func users(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user-%04d@example.com", i)
	}
	return out
}

// clientFor provisions a user key through the enclave and builds a Client.
func (e *env) clientFor(t *testing.T, id string) *Client {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := e.encl.EcallExtractUserKey(id, priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	uk, err := prov.Open(e.encl.Scheme(), e.encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(e.encl.Scheme(), e.mgr.PublicKey(), id, uk)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// records returns the group's current records, envelopes included.
func (e *env) records(t *testing.T, group string) map[string]*PartitionRecord {
	t.Helper()
	recs, err := e.mgr.Records(group)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// decryptAs asserts the user can recover a group key from the records and
// returns it.
func decryptAs(t *testing.T, e *env, group, user string, recs map[string]*PartitionRecord) [kdf.KeySize]byte {
	t.Helper()
	c := e.clientFor(t, user)
	rec, ok := c.FindOwnRecord(recs)
	if !ok {
		t.Fatalf("no partition record lists %s", user)
	}
	gk, err := c.DecryptRecord(group, rec)
	if err != nil {
		t.Fatalf("DecryptRecord(%s): %v", user, err)
	}
	return gk
}

func TestNewManagerValidations(t *testing.T) {
	platform, _ := enclave.NewPlatform("p", rand.Reader)
	ie, err := enclave.NewIBBEEnclave(platform, pairing.TypeA160())
	if err != nil {
		t.Fatal(err)
	}
	// Before setup.
	if _, err := NewManager(ie, 4, 1); !errors.Is(err, enclave.ErrEnclaveNotInitialized) {
		t.Fatal("manager created before enclave setup")
	}
	if _, _, err := ie.EcallSetup(4); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(ie, 0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewManager(ie, 5, 1); err == nil {
		t.Fatal("capacity beyond PK size accepted")
	}
}

func TestCreateGroupPartitionsAndDecrypt(t *testing.T) {
	e := newEnv(t, 3)
	members := users(7)
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Put) != 3 { // 7 members at capacity 3
		t.Fatalf("records = %d, want 3", len(up.Put))
	}
	if n, _ := e.mgr.PartitionCount("g"); n != 3 {
		t.Fatalf("partitions = %d, want 3", n)
	}
	// Every member decrypts the same group key, across partitions.
	var ref [kdf.KeySize]byte
	for i, u := range members {
		gk := decryptAs(t, e, "g", u, up.Put)
		if i == 0 {
			ref = gk
		} else if gk != ref {
			t.Fatalf("member %s sees a different group key", u)
		}
	}
}

func TestCreateGroupDuplicateName(t *testing.T) {
	e := newEnv(t, 3)
	if _, err := e.mgr.CreateGroup("g", users(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.CreateGroup("g", users(2)); !errors.Is(err, ErrGroupExists) {
		t.Fatal("duplicate group accepted")
	}
}

func TestAddUserExistingPartition(t *testing.T) {
	e := newEnv(t, 4)
	up, err := e.mgr.CreateGroup("g", users(2))
	if err != nil {
		t.Fatal(err)
	}
	gkBefore := decryptAs(t, e, "g", users(2)[0], up.Put)
	up2, err := e.mgr.AddUser("g", "joiner@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(up2.Put) != 1 || len(up2.Delete) != 0 {
		t.Fatalf("add touched %d records, want 1", len(up2.Put))
	}
	if n, _ := e.mgr.PartitionCount("g"); n != 1 {
		t.Fatal("add created an unnecessary partition")
	}
	gkJoiner := decryptAs(t, e, "g", "joiner@example.com", up2.Put)
	if gkJoiner != gkBefore {
		t.Fatal("group key changed on add")
	}
}

func TestAddUserNewPartitionWhenFull(t *testing.T) {
	e := newEnv(t, 2)
	up, err := e.mgr.CreateGroup("g", users(2)) // exactly one full partition
	if err != nil {
		t.Fatal(err)
	}
	gk := decryptAs(t, e, "g", users(2)[0], up.Put)
	up2, err := e.mgr.AddUser("g", "overflow@example.com")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.mgr.PartitionCount("g"); n != 2 {
		t.Fatalf("partitions = %d, want 2", n)
	}
	gk2 := decryptAs(t, e, "g", "overflow@example.com", up2.Put)
	if gk2 != gk {
		t.Fatal("new partition wraps a different group key")
	}
}

func TestAddDuplicateUser(t *testing.T) {
	e := newEnv(t, 4)
	if _, err := e.mgr.CreateGroup("g", users(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.AddUser("g", users(2)[0]); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestAddToUnknownGroup(t *testing.T) {
	e := newEnv(t, 4)
	if _, err := e.mgr.AddUser("ghost", "u"); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatal("unknown group accepted")
	}
}

func TestRemoveUserRotatesGroupKey(t *testing.T) {
	e := newEnv(t, 2)
	members := users(4) // two full partitions
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	gk := decryptAs(t, e, "g", members[0], up.Put)
	e.mgr.DisableRepartition = true
	up2, err := e.mgr.RemoveUser("g", members[1])
	if err != nil {
		t.Fatal(err)
	}
	// Only the partition that lost the member is re-published; the other
	// one's new wrapped key travels in the header, with the new sealed key.
	if len(up2.Put) != 1 || len(up2.Buckets) != 1 || up2.SealedGK == nil || bytes.Equal(up2.Header, up.Header) {
		t.Fatalf("remove published %d records, %d buckets, sealed key %v", len(up2.Put), len(up2.Buckets), up2.SealedGK != nil)
	}
	recs := e.records(t, "g")
	gkA := decryptAs(t, e, "g", members[0], recs)
	gkB := decryptAs(t, e, "g", members[2], recs)
	if gkA != gkB {
		t.Fatal("partitions disagree after removal")
	}
	if gkA == gk {
		t.Fatal("group key not rotated on removal")
	}
	// The removed user is in no record.
	removed := e.clientFor(t, members[1])
	if _, ok := removed.FindOwnRecord(recs); ok {
		t.Fatal("removed user still listed")
	}
}

func TestRemoveLastUserOfPartitionDeletesObject(t *testing.T) {
	e := newEnv(t, 2)
	members := users(3) // partitions: [u0,u1], [u2]
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	e.mgr.DisableRepartition = true
	up, err := e.mgr.RemoveUser("g", members[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Delete) != 1 {
		t.Fatalf("deletes = %v, want one partition", up.Delete)
	}
	if n, _ := e.mgr.PartitionCount("g"); n != 1 {
		t.Fatalf("partitions = %d, want 1", n)
	}
	// Remaining members still converge on a fresh key.
	gkA := decryptAs(t, e, "g", members[0], e.records(t, "g"))
	gkB := decryptAs(t, e, "g", members[1], e.records(t, "g"))
	if gkA != gkB {
		t.Fatal("remaining members disagree")
	}
}

func TestRemoveUnknownUser(t *testing.T) {
	e := newEnv(t, 2)
	if _, err := e.mgr.CreateGroup("g", users(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.RemoveUser("g", "ghost"); err == nil {
		t.Fatal("unknown member removal accepted")
	}
}

func TestRepartitionTriggersOnSparseGroup(t *testing.T) {
	e := newEnv(t, 3)
	members := users(9) // three full partitions
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	// Remove until sparse; the heuristic should eventually fire and pack
	// the survivors into fewer partitions.
	for _, u := range []string{members[0], members[1], members[3], members[4], members[6]} {
		if _, err := e.mgr.RemoveUser("g", u); err != nil {
			t.Fatal(err)
		}
	}
	if e.mgr.Repartitions() == 0 {
		t.Fatal("occupancy heuristic never fired")
	}
	recs, err := e.mgr.Records("g")
	if err != nil {
		t.Fatal(err)
	}
	// All four survivors still decrypt a common key.
	var ref [kdf.KeySize]byte
	first := true
	for _, u := range []string{members[2], members[5], members[7], members[8]} {
		gk := decryptAs(t, e, "g", u, recs)
		if first {
			ref, first = gk, false
		} else if gk != ref {
			t.Fatalf("survivor %s sees a different key after repartition", u)
		}
	}
}

func TestRepartitionUpdateDeletesStaleObjects(t *testing.T) {
	e := newEnv(t, 2)
	members := users(6)
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[string]bool)
	for id := range up.Put {
		before[id] = true
	}
	up2, err := e.mgr.Repartition("g")
	if err != nil {
		t.Fatal(err)
	}
	// Applying (delete then put) over the old state must leave exactly the
	// new partition set.
	state := make(map[string]bool)
	for id := range before {
		state[id] = true
	}
	for _, id := range up2.Delete {
		delete(state, id)
	}
	for id := range up2.Put {
		state[id] = true
	}
	if len(state) != len(up2.Put) {
		t.Fatalf("stale objects survive repartition: %v", state)
	}
}

func TestRekeyGroup(t *testing.T) {
	e := newEnv(t, 2)
	members := users(4)
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	gk := decryptAs(t, e, "g", members[0], up.Put)
	up2, err := e.mgr.RekeyGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	gk2 := decryptAs(t, e, "g", members[0], up2.Put)
	if gk2 == gk {
		t.Fatal("rekey kept the old key")
	}
	gk3 := decryptAs(t, e, "g", members[3], up2.Put)
	if gk3 != gk2 {
		t.Fatal("partitions disagree after rekey")
	}
}

func TestMetadataSizeConstantPerPartition(t *testing.T) {
	e := newEnv(t, 4)
	if _, err := e.mgr.CreateGroup("g4", users(4)); err != nil {
		t.Fatal(err)
	}
	size4, err := e.mgr.MetadataSize("g4")
	if err != nil {
		t.Fatal(err)
	}
	// 8 members at capacity 4 → exactly twice the metadata of 4 members.
	if _, err := e.mgr.CreateGroup("g8", append(users(4), "a@x", "b@x", "c@x", "d@x")); err != nil {
		t.Fatal(err)
	}
	size8, err := e.mgr.MetadataSize("g8")
	if err != nil {
		t.Fatal(err)
	}
	if size8 != 2*size4 {
		t.Fatalf("metadata not per-partition constant: %d vs %d", size4, size8)
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	e := newEnv(t, 3)
	members := users(5)
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	recs, err := e.mgr.Records("g")
	if err != nil {
		t.Fatal(err)
	}
	s := e.encl.Scheme()
	for id, rec := range recs {
		data, err := rec.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalRecord(s, data)
		if err != nil {
			t.Fatal(err)
		}
		if back.PartitionID != id || len(back.Members) != len(rec.Members) {
			t.Fatal("record round trip changed identity")
		}
		// The serialised record still decrypts, with yᵢ from the header.
		if back.WrappedGK != nil || back.WrapHandle != nil {
			t.Fatal("the partition object carries the key envelope")
		}
		back.WrappedGK = rec.WrappedGK
		gk1 := decryptAs(t, e, "g", rec.Members[0], map[string]*PartitionRecord{id: back})
		gk2 := decryptAs(t, e, "g", rec.Members[0], map[string]*PartitionRecord{id: rec})
		if gk1 != gk2 {
			t.Fatal("round-tripped record decrypts differently")
		}
	}
}

func TestUnmarshalRecordRejectsGarbage(t *testing.T) {
	s := newEnv(t, 2).encl.Scheme()
	for _, bad := range [][]byte{nil, []byte("{"), {kindRecord}, {kindRecord, 1, 'p', 0, 3, 1, 2, 3}, []byte(`{"partition_id":"p000001","members":[],"ct":"AAAA"}`)} {
		if _, err := UnmarshalRecord(s, bad); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("garbage record %q accepted: %v", bad, err)
		}
	}
}

func TestClientRejectsForeignPartition(t *testing.T) {
	e := newEnv(t, 2)
	members := users(4)
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	c := e.clientFor(t, members[0])
	for _, rec := range up.Put {
		if rec.ContainsMember(members[0]) {
			continue
		}
		if _, err := c.DecryptRecord("g", rec); !errors.Is(err, ErrNotInPartition) {
			t.Fatalf("decrypting a foreign partition: %v", err)
		}
	}
}

func TestClientRejectsWrongGroupLabel(t *testing.T) {
	e := newEnv(t, 2)
	members := users(2)
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	c := e.clientFor(t, members[0])
	rec, _ := c.FindOwnRecord(up.Put)
	if _, err := c.DecryptRecord("other-group", rec); err == nil {
		t.Fatal("wrapped key opened under the wrong group label")
	}
}

func TestGroupsListing(t *testing.T) {
	e := newEnv(t, 2)
	for _, g := range []string{"beta", "alpha"} {
		if _, err := e.mgr.CreateGroup(g, users(2)); err != nil {
			t.Fatal(err)
		}
	}
	got := e.mgr.Groups()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Groups() = %v", got)
	}
	m, err := e.mgr.Members("alpha")
	if err != nil || len(m) != 2 {
		t.Fatalf("Members: %v %v", m, err)
	}
}

func TestManyOperationsKeepConsistency(t *testing.T) {
	e := newEnv(t, 4)
	members := users(10)
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	// Interleave adds and removes, then check every survivor decrypts.
	ops := []struct {
		add  bool
		user string
	}{
		{false, members[0]},
		{true, "n1@x"},
		{false, members[5]},
		{true, "n2@x"},
		{false, members[9]},
		{false, "n1@x"},
		{true, "n3@x"},
	}
	for _, op := range ops {
		var err error
		if op.add {
			_, err = e.mgr.AddUser("g", op.user)
		} else {
			_, err = e.mgr.RemoveUser("g", op.user)
		}
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
	}
	survivors, err := e.mgr.Members("g")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := e.mgr.Records("g")
	if err != nil {
		t.Fatal(err)
	}
	var ref [kdf.KeySize]byte
	for i, u := range survivors {
		gk := decryptAs(t, e, "g", u, recs)
		if i == 0 {
			ref = gk
		} else if gk != ref {
			t.Fatalf("survivor %s disagrees on the group key", u)
		}
	}
}

func TestOpLogChain(t *testing.T) {
	l, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		kind OpKind
		user string
	}{
		{OpCreateGroup, ""},
		{OpAddUser, "alice"},
		{OpRemoveUser, "bob"},
		{OpRekey, ""},
		{OpRepartition, ""},
	}
	for _, op := range ops {
		if _, err := l.Append("admin-1", "g", op.kind, op.user); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != len(ops) {
		t.Fatalf("log length = %d", l.Len())
	}
	if err := VerifyChain(l.Entries(), l.PublicKey()); err != nil {
		t.Fatalf("genuine chain rejected: %v", err)
	}
}

func TestOpLogDetectsTamper(t *testing.T) {
	l, err := NewOpLog()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("admin", "g", OpAddUser, fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	entries := l.Entries()
	entries[1].User = "mallory"
	if err := VerifyChain(entries, l.PublicKey()); !errors.Is(err, ErrLogTampered) {
		t.Fatal("tampered entry accepted")
	}
	// Dropping an entry breaks the chain.
	entries2 := l.Entries()
	if err := VerifyChain(entries2[1:], l.PublicKey()); !errors.Is(err, ErrLogTampered) {
		t.Fatal("truncated chain accepted")
	}
}

func TestOpKindString(t *testing.T) {
	if OpAddUser.String() != "add-user" || OpKind(99).String() == "" {
		t.Fatal("OpKind.String broken")
	}
}
