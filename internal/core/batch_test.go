package core

import (
	"errors"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/partition"
)

func TestAddUsersBatchKeepsKeyAndCoalesces(t *testing.T) {
	e := newEnv(t, 4)
	base := users(8) // two full partitions
	up, err := e.mgr.CreateGroup("g", base)
	if err != nil {
		t.Fatal(err)
	}
	gk := decryptAs(t, e, "g", base[0], up.Put)

	// 6 joiners at capacity 4 over a full group: the batch must open
	// ⌈6/4⌉ = 2 fresh partitions, not 6 singletons.
	joiners := []string{"j1@x", "j2@x", "j3@x", "j4@x", "j5@x", "j6@x"}
	up2, err := e.mgr.AddUsers("g", joiners)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.mgr.PartitionCount("g"); n != 4 {
		t.Fatalf("partitions = %d, want 4 (batch must pack joiners)", n)
	}
	if len(up2.Put) != 2 {
		t.Fatalf("batch add touched %d records, want 2", len(up2.Put))
	}
	// Adds never rotate the group key; every joiner derives the current one.
	for _, u := range joiners {
		if got := decryptAs(t, e, "g", u, up2.Put); got != gk {
			t.Fatalf("joiner %s sees a different group key", u)
		}
	}
}

func TestAddUsersBatchFillsOpenPartitionsWithOneRecordEach(t *testing.T) {
	e := newEnv(t, 4)
	base := users(2) // one partition with two free slots
	if _, err := e.mgr.CreateGroup("g", base); err != nil {
		t.Fatal(err)
	}
	up, err := e.mgr.AddUsers("g", []string{"a@x", "b@x"})
	if err != nil {
		t.Fatal(err)
	}
	// Both joiners land in the single open partition: one record, one
	// ciphertext extension for the whole batch.
	if len(up.Put) != 1 || len(up.Delete) != 0 {
		t.Fatalf("batch touched %d records, want 1", len(up.Put))
	}
	if n, _ := e.mgr.PartitionCount("g"); n != 1 {
		t.Fatal("batch opened an unnecessary partition")
	}
	gkA := decryptAs(t, e, "g", "a@x", up.Put)
	gkB := decryptAs(t, e, "g", "b@x", up.Put)
	if gkA != gkB {
		t.Fatal("joiners disagree on the group key")
	}
}

func TestRemoveUsersBatchOneRekeyPassPerPartition(t *testing.T) {
	e := newEnv(t, 2)
	members := users(8) // four full partitions
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	gk := decryptAs(t, e, "g", members[0], up.Put)
	e.mgr.DisableRepartition = true

	// Remove three users: both members of one partition (which empties and
	// must be deleted) and one member of another.
	up2, err := e.mgr.RemoveUsers("g", []string{members[0], members[1], members[2]})
	if err != nil {
		t.Fatal(err)
	}
	// Three partitions remain: the one that lost a member is re-keyed once
	// (one put), the other two are re-wrapped in the header, and the emptied
	// partition is deleted.
	if len(up2.Put) != 1 {
		t.Fatalf("batch removal republished %d records, want 1", len(up2.Put))
	}
	if len(up2.Delete) != 1 {
		t.Fatalf("deletes = %v, want the emptied partition", up2.Delete)
	}
	// Survivors converge on a fresh key.
	var ref [kdf.KeySize]byte
	recs := e.records(t, "g")
	for i, u := range []string{members[3], members[4], members[6]} {
		got := decryptAs(t, e, "g", u, recs)
		if i == 0 {
			ref = got
		} else if got != ref {
			t.Fatalf("survivor %s disagrees", u)
		}
	}
	if ref == gk {
		t.Fatal("group key not rotated by batch removal")
	}
	// No record lists a removed user.
	for _, u := range []string{members[0], members[1], members[2]} {
		c := e.clientFor(t, u)
		if _, ok := c.FindOwnRecord(recs); ok {
			t.Fatalf("removed user %s still listed", u)
		}
	}
}

func TestRemoveUsersWholeGroup(t *testing.T) {
	e := newEnv(t, 2)
	members := users(4)
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	e.mgr.DisableRepartition = true
	up, err := e.mgr.RemoveUsers("g", members)
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Put) != 0 || len(up.Delete) != 2 {
		t.Fatalf("emptying the group: puts=%d deletes=%v", len(up.Put), up.Delete)
	}
	if n, _ := e.mgr.PartitionCount("g"); n != 0 {
		t.Fatal("partitions survive an empty group")
	}
}

func TestAddUsersRollbackOnValidationError(t *testing.T) {
	e := newEnv(t, 4)
	base := users(2)
	if _, err := e.mgr.CreateGroup("g", base); err != nil {
		t.Fatal(err)
	}
	// Batch containing an existing member must fail atomically.
	if _, err := e.mgr.AddUsers("g", []string{"new@x", base[0]}); !errors.Is(err, partition.ErrMemberExists) {
		t.Fatalf("batch with existing member: %v", err)
	}
	// Batch with an internal duplicate must fail atomically.
	if _, err := e.mgr.AddUsers("g", []string{"dup@x", "dup@x"}); !errors.Is(err, partition.ErrMemberExists) {
		t.Fatalf("batch with duplicate: %v", err)
	}
	members, err := e.mgr.Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("failed batch leaked members: %v", members)
	}
}

func TestRemoveUsersUnknownMemberRejected(t *testing.T) {
	e := newEnv(t, 4)
	if _, err := e.mgr.CreateGroup("g", users(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.RemoveUsers("g", []string{users(3)[0], "ghost@x"}); !errors.Is(err, partition.ErrNoSuchMember) {
		t.Fatalf("unknown member in batch: %v", err)
	}
	members, _ := e.mgr.Members("g")
	if len(members) != 3 {
		t.Fatalf("failed batch mutated the group: %v", members)
	}
}

func TestEmptyBatchesAreNoOps(t *testing.T) {
	e := newEnv(t, 4)
	if _, err := e.mgr.CreateGroup("g", users(2)); err != nil {
		t.Fatal(err)
	}
	upA, err := e.mgr.AddUsers("g", nil)
	if err != nil || len(upA.Put) != 0 || len(upA.Delete) != 0 {
		t.Fatalf("empty add batch: %v %+v", err, upA)
	}
	upR, err := e.mgr.RemoveUsers("g", nil)
	if err != nil || len(upR.Put) != 0 || len(upR.Delete) != 0 {
		t.Fatalf("empty remove batch: %v %+v", err, upR)
	}
}

func TestBatchOnUnknownGroup(t *testing.T) {
	e := newEnv(t, 4)
	if _, err := e.mgr.AddUsers("ghost", []string{"u"}); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatal("AddUsers on unknown group accepted")
	}
	if _, err := e.mgr.RemoveUsers("ghost", []string{"u"}); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatal("RemoveUsers on unknown group accepted")
	}
}

func TestRemoveUsersBatchTriggersRepartition(t *testing.T) {
	e := newEnv(t, 3)
	members := users(9) // three full partitions
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	// One batch that leaves every partition nearly empty must fire the
	// occupancy heuristic exactly once.
	if _, err := e.mgr.RemoveUsers("g", []string{
		members[0], members[1], members[3], members[4], members[6],
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.mgr.Repartitions(); got != 1 {
		t.Fatalf("repartitions = %d, want 1 (once per batch)", got)
	}
	recs, err := e.mgr.Records("g")
	if err != nil {
		t.Fatal(err)
	}
	var ref [kdf.KeySize]byte
	for i, u := range []string{members[2], members[5], members[7], members[8]} {
		gk := decryptAs(t, e, "g", u, recs)
		if i == 0 {
			ref = gk
		} else if gk != ref {
			t.Fatalf("survivor %s disagrees after batch repartition", u)
		}
	}
}
