package core

import (
	"bytes"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
)

// ecallCounts installs an Obs hook counting ECALLs by name; read the map
// between operations only.
func ecallCounts(e *env) map[string]int {
	counts := make(map[string]int)
	var mu sync.Mutex // per-partition ECALLs fan out across workers
	e.encl.Obs = func(call string, _ float64) {
		mu.Lock()
		counts[call]++
		mu.Unlock()
	}
	return counts
}

// ctBytes is a record's marshalled ciphertext.
func ctBytes(e *env, rec *PartitionRecord) []byte {
	return e.encl.Scheme().MarshalCiphertext(rec.CT)
}

// changedCTs returns the partitions of after whose ciphertext differs from
// before's, and fails unless every unchanged one kept its handle and changed
// its wrapped key.
func changedCTs(t *testing.T, e *env, before, after map[string]*PartitionRecord) []string {
	t.Helper()
	var changed []string
	for id, rec := range after {
		old, ok := before[id]
		if !ok {
			t.Fatalf("partition %s appeared from nowhere", id)
		}
		if len(rec.WrapHandle) == 0 {
			t.Fatalf("partition %s published without a re-wrap handle", id)
		}
		if bytes.Equal(rec.WrappedGK, old.WrappedGK) {
			t.Fatalf("partition %s kept its wrapped group key across a rotation", id)
		}
		if !bytes.Equal(ctBytes(e, rec), ctBytes(e, old)) {
			changed = append(changed, id)
		} else if !bytes.Equal(rec.WrapHandle, old.WrapHandle) {
			t.Fatalf("partition %s kept its ciphertext but not its handle", id)
		}
	}
	return changed
}

func TestRemovalRekeysOnlyThePartitionThatLostAMember(t *testing.T) {
	e := newEnv(t, 3)
	e.mgr.DisableRepartition = true
	members := users(12) // four full partitions
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	counts := ecallCounts(e)
	up2, err := e.mgr.RemoveUser("g", members[4])
	if err != nil {
		t.Fatal(err)
	}
	if len(up2.Put) != 4 {
		t.Fatalf("removal republished %d records, want 4", len(up2.Put))
	}
	changed := changedCTs(t, e, up.Put, up2.Put)
	if len(changed) != 1 || !up.Put[changed[0]].ContainsMember(members[4]) {
		t.Fatalf("ciphertexts changed in %v, want only the revoked user's partition", changed)
	}
	if counts["rekey"] != 0 || counts["rewrap"] == 0 || counts["remove_users"] != 1 {
		t.Fatalf("ECALLs on a removal: %v", counts)
	}
	// Every survivor, re-wrapped or re-keyed, derives the same fresh key.
	gk := decryptAs(t, e, "g", members[0], up2.Put)
	for _, u := range []string{members[3], members[5], members[11]} {
		if decryptAs(t, e, "g", u, up2.Put) != gk {
			t.Fatalf("%s disagrees on the key after the removal", u)
		}
	}
	if gk == decryptAs(t, e, "g", members[0], up.Put) {
		t.Fatal("removal kept the old group key")
	}
}

func TestRekeyGroupAndDisableRewrapRekeyEveryPartition(t *testing.T) {
	e := newEnv(t, 3)
	e.mgr.DisableRepartition = true
	members := users(12)
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	counts := ecallCounts(e)
	up2, err := e.mgr.RekeyGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := changedCTs(t, e, up.Put, up2.Put); len(got) != 4 {
		t.Fatalf("RekeyGroup rotated %d of 4 ciphertexts", len(got))
	}
	if counts["rekey"] != 4 || counts["rewrap"] != 0 {
		t.Fatalf("ECALLs on RekeyGroup: %v", counts)
	}

	e.mgr.DisableRewrap = true
	up3, err := e.mgr.RemoveUser("g", members[4])
	if err != nil {
		t.Fatal(err)
	}
	if got := changedCTs(t, e, up2.Put, up3.Put); len(got) != 4 {
		t.Fatalf("DisableRewrap removal rotated %d of 4 ciphertexts", len(got))
	}
	if counts["rekey"] != 4+3 || counts["rewrap"] != 0 {
		t.Fatalf("ECALLs on a DisableRewrap removal: %v", counts)
	}
	if decryptAs(t, e, "g", members[0], up3.Put) != decryptAs(t, e, "g", members[5], up3.Put) {
		t.Fatal("partitions disagree after the paper-path removal")
	}
}

// A record written before handles existed is re-keyed by its first sweep,
// which gives it a handle; from then on it is re-wrapped.
func TestHandlelessRecordsHealOnTheFirstSweep(t *testing.T) {
	e := newEnv(t, 3)
	e.mgr.DisableRepartition = true
	members := users(9)
	if _, err := e.mgr.CreateGroup("g", members); err != nil {
		t.Fatal(err)
	}
	recs, err := e.mgr.Records("g")
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := e.mgr.SealedGroupKey("g")
	if err != nil {
		t.Fatal(err)
	}
	s := e.encl.Scheme()
	for id, rec := range recs {
		rec.WrapHandle = nil
		blob, err := rec.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(blob, []byte(`"wk"`)) {
			t.Fatalf("handle-less record %s still writes the wk field", id)
		}
		if recs[id], err = UnmarshalRecord(s, blob); err != nil {
			t.Fatal(err)
		}
	}
	e.mgr.DropGroup("g")
	if err := e.mgr.RestoreGroup("g", recs, sealed); err != nil {
		t.Fatal(err)
	}

	counts := ecallCounts(e)
	up, err := e.mgr.RemoveUser("g", members[0])
	if err != nil {
		t.Fatal(err)
	}
	if counts["rekey"] != 2 || counts["rewrap"] != 0 {
		t.Fatalf("ECALLs sweeping handle-less records: %v", counts)
	}
	for id, rec := range up.Put {
		if len(rec.WrapHandle) == 0 {
			t.Fatalf("record %s left the healing sweep without a handle", id)
		}
	}
	up2, err := e.mgr.RemoveUser("g", members[1])
	if err != nil {
		t.Fatal(err)
	}
	if counts["rekey"] != 2 || counts["rewrap"] == 0 {
		t.Fatalf("ECALLs after healing: %v", counts)
	}
	if got := changedCTs(t, e, up.Put, up2.Put); len(got) != 1 {
		t.Fatalf("second removal rotated %v, want one partition", got)
	}
	if decryptAs(t, e, "g", members[2], up2.Put) != decryptAs(t, e, "g", members[8], up2.Put) {
		t.Fatal("partitions disagree after healing")
	}
}

// The handle travels with the record through an eviction: a paged group whose
// pages rehydrate from marshalled records still re-wraps.
func TestRewrapSurvivesPageEviction(t *testing.T) {
	e := newEnv(t, 2)
	e.mgr.DisableRepartition = true
	e.mgr.SetMaxResidentPages(2)
	members := users(12) // six partitions, two resident
	up, err := e.mgr.CreateGroup("g", members)
	if err != nil {
		t.Fatal(err)
	}
	s := e.encl.Scheme()
	store := make(map[string][]byte)
	apply := func(up *Update) {
		for _, id := range up.Delete {
			delete(store, id)
		}
		for id, rec := range up.Put {
			blob, err := rec.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			store[id] = blob
		}
	}
	apply(up)
	if err := e.mgr.SetPageSource("g", func(id string) (*PartitionRecord, error) {
		return UnmarshalRecord(s, store[id])
	}); err != nil {
		t.Fatal(err)
	}
	counts := ecallCounts(e)
	before := up.Put
	for _, u := range []string{members[0], members[5], members[10]} {
		up, err = e.mgr.RemoveUser("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if got := changedCTs(t, e, before, up.Put); len(got) != 1 {
			t.Fatalf("removing %s rotated %v, want one partition", u, got)
		}
		apply(up)
		before = up.Put
	}
	if counts["rekey"] != 0 {
		t.Fatalf("paged removals re-keyed untouched partitions: %v", counts)
	}
	if st, _ := e.mgr.GroupPageStats("g"); st.Evictions == 0 {
		t.Fatal("the sweep never evicted a page: the test does not cover rehydration")
	}
	if decryptAs(t, e, "g", members[1], up.Put) != decryptAs(t, e, "g", members[11], up.Put) {
		t.Fatal("partitions disagree after paged removals")
	}
}

// A removal costs the same G1 exponentiations whatever the partition count:
// only the partition that lost the member does pairing-group work.
func TestRemovalG1ExpsIndependentOfPartitionCount(t *testing.T) {
	cost := func(partitions int) int64 {
		e := newEnv(t, 2)
		e.mgr.DisableRepartition = true
		members := users(2 * partitions)
		if _, err := e.mgr.CreateGroup("g", members); err != nil {
			t.Fatal(err)
		}
		ops := &ibbe.Metrics{}
		e.encl.Scheme().Metrics = ops
		if _, err := e.mgr.RemoveUser("g", members[0]); err != nil {
			t.Fatal(err)
		}
		return ops.G1Exp.Load()
	}
	small, large := cost(2), cost(9)
	if small == 0 || small != large {
		t.Fatalf("G1 exponentiations per removal: %d with 2 partitions, %d with 9", small, large)
	}
}

func TestCryptoSizeCountsTheHandle(t *testing.T) {
	e := newEnv(t, 4)
	up, err := e.mgr.CreateGroup("g", users(8))
	if err != nil {
		t.Fatal(err)
	}
	s := e.encl.Scheme()
	total := 0
	for _, rec := range up.Put {
		if want := s.HeaderLen() + len(rec.WrappedGK) + len(rec.WrapHandle); rec.CryptoSize(s) != want {
			t.Fatalf("CryptoSize = %d, want header + yᵢ + handle = %d", rec.CryptoSize(s), want)
		}
		total += rec.CryptoSize(s)
	}
	if got, _ := e.mgr.MetadataSize("g"); got != total {
		t.Fatalf("MetadataSize = %d, records sum to %d", got, total)
	}
}

// FuzzUnmarshalRecord feeds the record decoder bytes as the honest-but-curious
// store could hand them back: it must reject or round-trip, never panic.
func FuzzUnmarshalRecord(f *testing.F) {
	e := newEnv(f, 2)
	up, err := e.mgr.CreateGroup("g", users(2))
	if err != nil {
		f.Fatal(err)
	}
	s := e.encl.Scheme()
	for _, rec := range up.Put {
		with, err := rec.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		rec.WrapHandle = nil
		without, err := rec.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(with)
		f.Add(without)
	}
	f.Add([]byte(`{"ct":"AAAA","wrapped_gk":"AA==","wk":"!"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalRecord(s, data)
		if err != nil {
			return
		}
		blob, err := rec.Marshal(s)
		if err != nil {
			t.Fatalf("accepted record does not marshal: %v", err)
		}
		back, err := UnmarshalRecord(s, blob)
		if err != nil {
			t.Fatalf("re-marshalled record rejected: %v", err)
		}
		if !bytes.Equal(back.WrappedGK, rec.WrappedGK) || !bytes.Equal(back.WrapHandle, rec.WrapHandle) ||
			!bytes.Equal(s.MarshalCiphertext(back.CT), s.MarshalCiphertext(rec.CT)) {
			t.Fatal("record changed across a marshal round trip")
		}
	})
}
