package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/wire"
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
	after := e.records(t, "g")
	changed := changedCTs(t, e, up.Put, after)
	if len(changed) != 1 || !up.Put[changed[0]].ContainsMember(members[4]) {
		t.Fatalf("ciphertexts changed in %v, want only the revoked user's partition", changed)
	}
	if len(up2.Put) != 1 || up2.Put[changed[0]] == nil {
		t.Fatalf("removal republished %d records, want only %s", len(up2.Put), changed[0])
	}
	if counts["rekey"] != 0 || counts["rewrap"] != 1 || counts["remove_users"] != 1 {
		t.Fatalf("ECALLs on a removal: %v", counts)
	}
	// Every survivor, re-wrapped or re-keyed, derives the same fresh key.
	gk := decryptAs(t, e, "g", members[0], after)
	for _, u := range []string{members[3], members[5], members[11]} {
		if decryptAs(t, e, "g", u, after) != gk {
			t.Fatalf("%s disagrees on the key after the removal", u)
		}
	}
	if gk == decryptAs(t, e, "g", members[0], up.Put) {
		t.Fatal("removal kept the old group key")
	}
}

// TestAddsKeepTheRewrapTableWarm: an add re-seals its partition's handle
// over the same wrap key and enters the new handle's cipher in the enclave's
// re-wrap table, and a create or re-key enters the handle it seals over its
// fresh wrap key, so a revocation after one add, or after two, unseals no
// handle at all — not the one the previous revocation re-keyed, and not one
// more per add.
func TestAddsKeepTheRewrapTableWarm(t *testing.T) {
	e := newEnv(t, 4)
	e.mgr.DisableRepartition = true
	if _, err := e.mgr.CreateGroup("g", users(24)); err != nil { // six full partitions
		t.Fatal(err)
	}
	ids := []string{"p000001", "p000002", "p000003", "p000004", "p000005", "p000006"}
	// remove revokes a member of partition pid and returns the handles the
	// revocation's re-wrap had to unseal.
	remove := func(pid string) uint64 {
		t.Helper()
		_, before := e.encl.WrapTableStats()
		if _, err := e.mgr.RemoveUser("g", e.records(t, "g")[pid].Members[0]); err != nil {
			t.Fatal(err)
		}
		_, after := e.encl.WrapTableStats()
		return after - before
	}
	// Every partition loses a member, p000006 last: every partition is open,
	// and every handle is in the table.
	for _, pid := range ids {
		remove(pid)
	}
	rekeyed := ids[5]
	for adds := 0; adds <= 2; adds++ {
		touched := map[string]bool{rekeyed: true}
		for i := 0; i < adds; i++ {
			up, err := e.mgr.AddUser("g", fmt.Sprintf("joiner-%d-%d@example.com", adds, i))
			if err != nil {
				t.Fatal(err)
			}
			for pid := range up.Put {
				if touched[pid] {
					t.Fatalf("add %d of %d joined %s, which this step already touched: the seeded placement changed, pick another layout", i+1, adds, pid)
				}
				touched[pid] = true
			}
		}
		target := ""
		for _, pid := range ids {
			if !touched[pid] {
				target = pid
				break
			}
		}
		if misses := remove(target); misses != 0 {
			t.Errorf("a revocation after %d adds unsealed %d handles, want 0 (%s was re-keyed by the previous revocation)", adds, misses, rekeyed)
		}
		rekeyed = target
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

// The handles live in the resident index, not in the pages: a paged group
// re-wraps without hydrating anything, a removal pins only the page that
// lost the member, and what it re-keys there survives eviction and
// rehydration from the marshalled record.
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
	loads := 0
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
		loads++
		return UnmarshalRecord(s, store[id])
	}); err != nil {
		t.Fatal(err)
	}
	// Creation held all six pages; the bound speaks of what follows it.
	if st, _ := e.mgr.GroupPageStats("g"); st.Resident != 2 || st.HighWater != 2 {
		t.Fatalf("after SetPageSource: %d resident, high water %d, want the limit of 2", st.Resident, st.HighWater)
	}
	counts := ecallCounts(e)
	before := up.Put
	for _, u := range []string{members[0], members[5], members[10]} {
		loads = 0
		up, err = e.mgr.RemoveUser("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if len(up.Put) != 1 || loads > 1 {
			t.Fatalf("removing %s wrote %d records and hydrated %d pages, want one of each at most", u, len(up.Put), loads)
		}
		apply(up)
		after := e.records(t, "g")
		if got := changedCTs(t, e, before, after); len(got) != 1 || up.Put[got[0]] == nil {
			t.Fatalf("removing %s rotated %v, want the one partition it republished", u, got)
		}
		before = after
		if err := e.mgr.ResetGroupHighWater("g"); err != nil { // the listing above walked every page
			t.Fatal(err)
		}
	}
	if counts["rekey"] != 0 || counts["rewrap"] != 3 {
		t.Fatalf("paged removals: ECALLs %v, want one re-wrap each and no re-key", counts)
	}
	// One more removal, measured on its own: it pins the page in removedBy
	// and nothing else, so residency stays within the limit.
	if _, err := e.mgr.RemoveUser("g", members[7]); err != nil {
		t.Fatal(err)
	}
	st, _ := e.mgr.GroupPageStats("g")
	if st.HighWater > st.Limit {
		t.Fatalf("a removal held %d pages resident, limit %d", st.HighWater, st.Limit)
	}
	if st.Evictions == 0 {
		t.Fatal("no page was ever evicted: the test does not cover rehydration")
	}
	recs := e.records(t, "g")
	if decryptAs(t, e, "g", members[1], recs) != decryptAs(t, e, "g", members[11], recs) {
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

// unmarshalRecordReference is the record decoder as it was before the roster
// came out of one string: a string and a map insert per name. It stays as
// FuzzUnmarshalRecord's reference.
func unmarshalRecordReference(s *ibbe.Scheme, data []byte) (*PartitionRecord, error) {
	r := wire.NewReader(data, kindRecord)
	rec := &PartitionRecord{PartitionID: r.String()}
	n := r.Count(1)
	if r.Err() == nil {
		seen := make(map[string]bool, n)
		rec.Members = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m := r.String()
			if seen[m] {
				return nil, fmt.Errorf("%w: %s lists %q twice", ErrBadRecord, rec.PartitionID, m)
			}
			seen[m] = true
			rec.Members = append(rec.Members, m)
		}
	}
	ctRaw := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	ct, err := s.UnmarshalCiphertext(ctRaw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	rec.CT = ct
	return rec, nil
}

// FuzzUnmarshalRecord feeds the record decoder bytes as the honest-but-curious
// store could hand them back: it must reject or round-trip to the same bytes
// (so trailing bytes cannot be accepted), never list a member twice, and
// never panic or size an allocation from an unchecked length. It accepts
// exactly what the reference decoder accepts, decoding to the same partition,
// roster and ciphertext.
func FuzzUnmarshalRecord(f *testing.F) {
	e := newEnv(f, 3)
	up, err := e.mgr.CreateGroup("g", users(4))
	if err != nil {
		f.Fatal(err)
	}
	s := e.encl.Scheme()
	for _, id := range []string{"p000001", "p000002"} {
		blob, err := up.Put[id].Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(append(blob, 0)) // trailing byte
	}
	base := up.Put["p000002"]
	roster := func(members ...string) []byte {
		rec := *base
		rec.Members = members
		blob, err := rec.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	f.Add(roster(base.Members[0], base.Members[0]))
	f.Add(roster("user-a@example.com", "user-b@example.com")) // differ in the last byte only
	f.Add(roster("user-a@example.com", "user-a@example.co"))  // one a prefix of the other
	f.Add(roster("", "user-a@example.com"))                   // an empty name
	f.Add(roster("", ""))
	f.Add(roster()) // no members
	full := make([]string, 256)
	for i := range full {
		full[i] = fmt.Sprintf("g01-m%06d@bench", i)
	}
	f.Add(roster(full...))
	f.Add(roster(append(full[:255:255], full[17])...))           // a repeat at the end of a 256-name roster
	f.Add([]byte{kindRecord, 1, 'p', 0xff, 0xff, 0xff, 0xff, 7}) // roster length past the buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalRecord(s, data)
		ref, refErr := unmarshalRecordReference(s, data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("rejection is not ErrBadRecord: %v", err)
			}
			return
		}
		if rec.PartitionID != ref.PartitionID || !slices.Equal(rec.Members, ref.Members) ||
			!bytes.Equal(s.MarshalCiphertext(rec.CT), s.MarshalCiphertext(ref.CT)) {
			t.Fatal("decoder and reference disagree on an accepted record")
		}
		seen := make(map[string]bool)
		for _, m := range rec.Members {
			if seen[m] {
				t.Fatalf("accepted record lists %q twice", m)
			}
			seen[m] = true
		}
		blob, err := rec.Marshal(s)
		if err != nil {
			t.Fatalf("accepted record does not marshal: %v", err)
		}
		if !bytes.Equal(blob, data) {
			t.Fatal("accepted record is not the canonical encoding of what it decoded to")
		}
	})
}

// BenchmarkUnmarshalRecord512 prices one page rehydration's decode at the
// paper width: a record of 256 names shaped like the repository benchmark's
// (gNN-mNNNNNN@bench) behind a type-a-512 ciphertext.
func BenchmarkUnmarshalRecord512(b *testing.B) {
	s := ibbe.NewScheme(pairing.TypeA512())
	g1 := s.P.G1
	var pts [3]*curve.Point
	for i := range pts {
		p, err := g1.RandPoint(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		pts[i] = p
	}
	rec := &PartitionRecord{PartitionID: "p000042", CT: &ibbe.Ciphertext{C1: pts[0], C2: pts[1], C3: pts[2]}}
	for i := 0; i < 256; i++ {
		rec.Members = append(rec.Members, fmt.Sprintf("g%02d-m%06d@bench", i%16, 4096+i))
	}
	blob, err := rec.Marshal(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalRecord(s, blob); err != nil {
			b.Fatal(err)
		}
	}
}
