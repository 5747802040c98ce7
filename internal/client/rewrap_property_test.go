package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/partition"
)

// worldMode is how a rewrapWorld holds group state while it replays its
// schedule; the membership operations of a seed are the same in every mode.
type worldMode int

const (
	// modeHandOff moves the group between two managers sharing an enclave at
	// the schedule's hand-off steps: the standby restores from the store's
	// header and sealed key and hydrates everything else lazily.
	modeHandOff worldMode = iota
	// modeResident keeps one manager with every page resident.
	modeResident
	// modePaged keeps one manager with at most two resident pages.
	modePaged
)

// rewrapWorld drives one group through seeded membership operations and
// checks the access-control invariant against a set-of-members oracle, and
// the store-level invariant of the directory layout, after every step.
type rewrapWorld struct {
	t     *testing.T
	r     *rig
	rng   *rand.Rand
	group string
	mode  worldMode

	mgrs   [2]*core.Manager
	active int
	cache  *RecordCache

	members map[string]bool                  // the oracle
	revoked map[string][kdf.KeySize]byte     // removed user → the last wrap key it held
	clients map[string]*Client               // one long-lived reader per user ever seen
	recs    map[string]*core.PartitionRecord // what the store holds: records, with yᵢ and handle from the header
	sealed  []byte                           // the sealed group key as last published
	keys    map[[kdf.KeySize]byte]bool       // every group key ever current
	current [kdf.KeySize]byte
	nextID  int

	ecalls     map[string]int
	ops        *ibbe.Metrics
	removalG1  map[int64]bool // distinct non-zero G1-exp costs of a removal
	partitions map[int]bool   // partition counts removals ran at
	steps      map[string]int // how often each kind of step ran
}

func newRewrapWorld(t *testing.T, seed int64, mode worldMode) *rewrapWorld {
	r := newRig(t, 3)
	if mode == modePaged {
		r.mgr.SetMaxResidentPages(2)
	}
	standby, err := core.NewManager(r.encl, 3, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	w := &rewrapWorld{
		t: t, r: r, rng: rand.New(rand.NewSource(seed)), group: "g", mode: mode,
		mgrs:    [2]*core.Manager{r.mgr, standby},
		cache:   NewRecordCache(r.store),
		members: make(map[string]bool), revoked: make(map[string][kdf.KeySize]byte),
		clients: make(map[string]*Client), recs: make(map[string]*core.PartitionRecord),
		keys:   make(map[[kdf.KeySize]byte]bool),
		ecalls: make(map[string]int), ops: &ibbe.Metrics{},
		removalG1: make(map[int64]bool), partitions: make(map[int]bool),
		steps: make(map[string]int),
	}
	for _, m := range w.mgrs {
		m.DisableRepartition = true // repartitions are explicit steps of the schedule
	}
	var mu sync.Mutex // per-partition ECALLs fan out across workers
	r.encl.Obs = func(call string, _ float64) {
		mu.Lock()
		w.ecalls[call]++
		mu.Unlock()
	}
	r.encl.Scheme().Metrics = w.ops
	return w
}

func (w *rewrapWorld) mgr() *core.Manager { return w.mgrs[w.active] }

func (w *rewrapWorld) newUser() string {
	w.nextID++
	return fmt.Sprintf("u%03d@example.com", w.nextID)
}

// sorted returns the set's users in a seed-stable order.
func sorted[V any](set map[string]V) []string {
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func (w *rewrapWorld) pick(set []string) string { return set[w.rng.Intn(len(set))] }

// publish applies an update to the store and the shared cache, then re-reads
// the whole directory into the mirror, checking the layout's invariant on
// the way: union of buckets == union of rosters == oracle, header counts ==
// roster lengths, each name in exactly one bucket, no object left over.
func (w *rewrapWorld) publish(up *core.Update) {
	t, ctx := w.t, context.Background()
	w.r.publish(t, up)
	if up.SealedGK != nil {
		w.sealed = up.SealedGK
	}
	v, err := w.r.store.Version(ctx, w.group)
	if err != nil {
		t.Fatal(err)
	}
	w.cache.ObserveVersion(w.group, v)

	get := func(name string) []byte {
		blob, err := w.r.store.Get(ctx, w.group, name)
		if err != nil {
			t.Fatalf("store lacks %s: %v", name, err)
		}
		return blob
	}
	hdr, err := partition.UnmarshalIndex(get(partition.HeaderObject))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{partition.HeaderObject: true}
	w.recs = make(map[string]*core.PartitionRecord)
	inRoster := make(map[string]string)
	for _, id := range hdr.PageIDs() {
		want[id] = true
		rec, err := core.UnmarshalRecord(w.r.encl.Scheme(), get(id))
		if err != nil {
			t.Fatal(err)
		}
		if rec.PartitionID != id || len(rec.Members) != hdr.Count(id) {
			t.Fatalf("record %s lists %d members as %s, the header counts %d", id, len(rec.Members), rec.PartitionID, hdr.Count(id))
		}
		for _, u := range rec.Members {
			if inRoster[u] != "" || !w.members[u] {
				t.Fatalf("roster of %s lists %s (member: %v, also in %q)", id, u, w.members[u], inRoster[u])
			}
			inRoster[u] = id
		}
		rec.WrappedGK, rec.WrapHandle = hdr.Envelope(id)
		w.recs[id] = rec
	}
	bound := 0
	for i := 0; i < hdr.Fanout(); i++ {
		want[partition.BucketObject(i)] = true
		entries, err := partition.UnmarshalBucket(get(partition.BucketObject(i)), hdr.Fanout(), i)
		if err != nil {
			t.Fatal(err) // includes a name in a bucket it does not hash to, or bound twice there
		}
		for _, e := range entries {
			if inRoster[e.Member] != e.Page {
				t.Fatalf("bucket %d binds %s to %s, the rosters have it in %q", i, e.Member, e.Page, inRoster[e.Member])
			}
		}
		bound += len(entries)
	}
	if bound != len(w.members) || len(inRoster) != len(w.members) || hdr.Len() != len(w.members) {
		t.Fatalf("the directory binds %d names, the rosters list %d, the header counts %d, the oracle has %d", bound, len(inRoster), hdr.Len(), len(w.members))
	}
	names, err := w.r.store.List(ctx, w.group)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !want[name] {
			t.Fatalf("object %s is left over in the directory", name)
		}
	}
}

func (w *rewrapWorld) clientOf(user string) *Client {
	if c, ok := w.clients[user]; ok {
		return c
	}
	c := w.r.clientFor(w.t, user, w.group)
	c.SetCache(w.cache)
	w.clients[user] = c
	return c
}

func (w *rewrapWorld) ownRecord(user string) *core.PartitionRecord {
	for _, rec := range w.recs {
		if rec.ContainsMember(user) {
			return rec
		}
	}
	return nil
}

func (w *rewrapWorld) ct(rec *core.PartitionRecord) []byte {
	return w.r.encl.Scheme().MarshalCiphertext(rec.CT)
}

// check is the invariant, run after every step. rotated says whether the
// step must have produced a group key never seen before.
func (w *rewrapWorld) check(step string, rotated bool) {
	t, ctx := w.t, context.Background()
	var gk [kdf.KeySize]byte
	for i, u := range sorted(w.members) {
		cl := w.clientOf(u)
		viaClient, err := cl.Refresh(ctx)
		if err != nil {
			t.Fatalf("%s: member %s cannot derive the key: %v", step, u, err)
		}
		rec := w.ownRecord(u)
		if rec == nil {
			t.Fatalf("%s: no record lists member %s", step, u)
		}
		viaDecrypt, err := cl.dec.DecryptRecord(w.group, rec)
		if err != nil {
			t.Fatalf("%s: member %s: full decrypt: %v", step, u, err)
		}
		if viaClient != viaDecrypt {
			t.Fatalf("%s: member %s: kept-wrap-key path and full decrypt disagree", step, u)
		}
		if i == 0 {
			gk = viaDecrypt
		} else if viaDecrypt != gk {
			t.Fatalf("%s: member %s holds a different key", step, u)
		}
	}
	if rotated == w.keys[gk] {
		t.Fatalf("%s: group key rotated = %v, want %v", step, !w.keys[gk], rotated)
	}
	if !rotated && gk != w.current {
		t.Fatalf("%s: group key went back to an earlier one", step)
	}
	w.keys[gk], w.current = true, gk

	for _, u := range sorted(w.revoked) {
		cl := w.clientOf(u)
		if _, err := cl.Refresh(ctx); !errors.Is(err, ErrEvicted) {
			t.Fatalf("%s: removed user %s: Refresh = %v, want ErrEvicted", step, u, err)
		}
		for id, rec := range w.recs {
			if _, err := cl.dec.Unwrap(w.group, rec.WrappedGK, w.revoked[u]); err == nil {
				t.Fatalf("%s: removed user %s opens %s with its last wrap key", step, u, id)
			}
			// The curious ex-member claims a seat in the partition.
			forged := *rec
			forged.Members = append(append([]string(nil), rec.Members...), u)
			if _, err := cl.dec.DecryptRecord(w.group, &forged); err == nil {
				t.Fatalf("%s: removed user %s opens %s with its user key", step, u, id)
			}
		}
	}
}

func (w *rewrapWorld) create(n int) {
	var initial []string
	for i := 0; i < n; i++ {
		u := w.newUser()
		initial = append(initial, u)
		w.members[u] = true
	}
	up, err := w.mgr().CreateGroup(w.group, initial)
	if err != nil {
		w.t.Fatal(err)
	}
	w.publish(up)
	if w.mode == modePaged {
		if err := w.mgr().SetPageSource(w.group, w.fetchRecord); err != nil {
			w.t.Fatal(err)
		}
	}
	w.check("create", true)
}

func (w *rewrapWorld) add(user string) {
	up, err := w.mgr().AddUser(w.group, user)
	if err != nil {
		w.t.Fatal(err)
	}
	w.members[user] = true
	if _, back := w.revoked[user]; back {
		w.steps["re-add"]++
		delete(w.revoked, user)
	}
	w.publish(up)
	w.check("add "+user, false)
}

func (w *rewrapWorld) remove(user string) {
	t := w.t
	before := w.recs
	lost := w.ownRecord(user)
	type counters struct{ decrypts, unwraps int64 }
	warm := make(map[string]counters)
	for u := range w.members {
		warm[u] = counters{w.clients[u].Decrypts(), w.clients[u].Unwraps()}
	}
	w.revoked[user] = w.clients[user].wk
	delete(w.members, user)

	n, _ := w.mgr().PartitionCount(w.group)
	w.partitions[n] = true
	g1 := w.ops.G1Exp.Load()
	up, err := w.mgr().RemoveUser(w.group, user)
	if err != nil {
		t.Fatal(err)
	}
	if cost := w.ops.G1Exp.Load() - g1; cost != 0 {
		w.removalG1[cost] = true
	}
	w.publish(up)

	// Exactly the partition that lost the member changed its ciphertext (or
	// vanished with its last member); the others kept CT and handle to the
	// byte and carry a new yᵢ.
	for id, rec := range w.recs {
		old := before[id]
		if old == nil {
			t.Fatalf("remove %s: partition %s appeared", user, id)
		}
		if bytes.Equal(rec.WrappedGK, old.WrappedGK) {
			t.Fatalf("remove %s: partition %s kept its wrapped key", user, id)
		}
		same := bytes.Equal(w.ct(rec), w.ct(old)) && bytes.Equal(rec.WrapHandle, old.WrapHandle)
		if same == (id == lost.PartitionID) {
			t.Fatalf("remove %s: partition %s (the user sat in %s): ciphertext and handle unchanged = %v",
				user, id, lost.PartitionID, same)
		}
	}
	w.check("remove "+user, true)

	// A reader pays an IBBE decrypt only when its own partition shrank.
	for u, was := range warm {
		if u == user {
			continue
		}
		cl := w.clients[u]
		d, uw := cl.Decrypts()-was.decrypts, cl.Unwraps()-was.unwraps
		if lost.ContainsMember(u) {
			if d != 1 || uw != 0 {
				t.Fatalf("remove %s: co-member %s did %d decrypts, %d unwraps", user, u, d, uw)
			}
		} else if d != 0 || uw != 1 {
			t.Fatalf("remove %s: member %s of an untouched partition did %d decrypts, %d unwraps", user, u, d, uw)
		}
	}
}

func (w *rewrapWorld) repartition() {
	up, err := w.mgr().Repartition(w.group)
	if err != nil {
		w.t.Fatal(err)
	}
	w.publish(up)
	w.steps["repartition"]++
	w.check("repartition", true)
}

// fetchRecord and fetchObject are the lazy fetches a restore installs.
func (w *rewrapWorld) fetchObject(name string) ([]byte, error) {
	return w.r.store.Get(context.Background(), w.group, name)
}

func (w *rewrapWorld) fetchRecord(id string) (*core.PartitionRecord, error) {
	blob, err := w.fetchObject(id)
	if err != nil {
		return nil, err
	}
	return core.UnmarshalRecord(w.r.encl.Scheme(), blob)
}

// handOff moves the group to the other manager the way a takeover does: from
// the store's group header plus the sealed group key, nothing else — buckets
// and records hydrate when the next operations touch them. In the modes that
// keep one manager the step is skipped, so the schedule stays the same.
func (w *rewrapWorld) handOff() {
	if w.mode != modeHandOff {
		return
	}
	t := w.t
	header, err := w.fetchObject(partition.HeaderObject)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := partition.UnmarshalIndex(header)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetBucketFetch(w.fetchObject)
	w.mgr().DropGroup(w.group)
	w.active = 1 - w.active
	if err := w.mgr().RestoreGroupPaged(w.group, idx, w.sealed, w.fetchRecord); err != nil {
		t.Fatal(err)
	}
	w.steps["hand-off"]++
	w.check("hand-off", false)
}

// run replays the seed's schedule.
func (w *rewrapWorld) run() {
	w.create(9)
	for step := 0; step < 40; step++ {
		p := w.rng.Intn(100)
		switch {
		case len(w.members) <= 5:
			p = 40 // grow
		case len(w.members) >= 14:
			p = 0 // shrink
		}
		switch {
		case p < 35:
			w.remove(w.pick(sorted(w.members)))
		case p < 55 && len(w.revoked) > 0: // back in, wherever there is room
			w.add(w.pick(sorted(w.revoked)))
		case p < 70:
			w.add(w.newUser())
		case p < 85:
			w.repartition()
		default:
			w.handOff()
		}
	}
}

// shape is what a schedule leaves in the store, crypto fields excepted. With
// placement the bucket objects (name → partition) and rosters are compared
// to the byte; without it only what does not depend on which open partition
// an add picked: the fan-out and which names each bucket holds.
func (w *rewrapWorld) shape(placement bool) string {
	hdr, err := partition.UnmarshalIndex(mustGet(w, partition.HeaderObject))
	if err != nil {
		w.t.Fatal(err)
	}
	out := fmt.Sprintf("capacity %d fan-out %d members %d\n", hdr.Capacity(), hdr.Fanout(), hdr.Len())
	for i := 0; i < hdr.Fanout(); i++ {
		blob := mustGet(w, partition.BucketObject(i))
		if placement {
			out += fmt.Sprintf("bucket %d: %x\n", i, blob)
			continue
		}
		entries, err := partition.UnmarshalBucket(blob, hdr.Fanout(), i)
		if err != nil {
			w.t.Fatal(err)
		}
		out += fmt.Sprintf("bucket %d:", i)
		for _, e := range entries {
			out += " " + e.Member
		}
		out += "\n"
	}
	if placement {
		for _, id := range hdr.PageIDs() {
			out += fmt.Sprintf("%s (%d): %v\n", id, hdr.Count(id), w.recs[id].Members)
		}
	}
	return out
}

func mustGet(w *rewrapWorld, name string) []byte {
	blob, err := w.fetchObject(name)
	if err != nil {
		w.t.Fatal(err)
	}
	return blob
}

// TestRewrapKeepsAccessControlInvariant is the proof obligation of the
// re-wrap sweep and of the directory layout under it: whatever the schedule,
// exactly the current members derive the current key, through the full
// decrypt and through the kept wrap key alike, nothing a removed user holds
// opens anything published later, and the store holds one consistent
// directory after every step. The same schedule replayed with every page
// resident, with two resident pages, and across hand-offs to a standby that
// restores from header + sealed key leaves the same group in the store, up
// to which open partition each add joined; replayed paged twice, it leaves
// the same bytes.
func TestRewrapKeepsAccessControlInvariant(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := newRewrapWorld(t, seed, modeHandOff)
			w.run()
			if w.ecalls["rekey"] != 0 || w.ecalls["rewrap"] == 0 {
				t.Fatalf("ECALLs over the schedule: %v", w.ecalls)
			}
			if w.steps["re-add"] == 0 || w.steps["repartition"] == 0 || w.steps["hand-off"] == 0 {
				t.Fatalf("the schedule skipped a kind of step: %v", w.steps)
			}
			if len(w.partitions) < 2 {
				t.Fatalf("removals ran at partition counts %v only", w.partitions)
			}
			if len(w.removalG1) != 1 {
				t.Fatalf("G1 exponentiations per removal vary with the group: %v over partition counts %v",
					w.removalG1, w.partitions)
			}

			resident := newRewrapWorld(t, seed, modeResident)
			resident.run()
			var paged [2]*rewrapWorld
			for i := range paged {
				paged[i] = newRewrapWorld(t, seed, modePaged)
				paged[i].run()
			}
			if evictions := paged[0].r.mgr.PageEvictions(); evictions == 0 {
				t.Fatal("the paged replay never evicted a page")
			}
			// A paged manager places a joiner in a resident partition with
			// room when it can, so its placements depend on what its cache
			// holds; they are still seeded, so two paged replays leave the
			// same bytes outside the crypto fields.
			if a, b := paged[0].shape(true), paged[1].shape(true); a != b {
				t.Fatalf("two paged replays diverge:\n first\n%s second\n%s", a, b)
			}
			// A paged manager, or a standby drawing its own placements (its
			// own manager, its own randomness) across hand-offs, leaves the
			// same group as the resident replay up to which open partition
			// each add landed in.
			for name, other := range map[string]*rewrapWorld{"paged": paged[0], "hand-off": w} {
				if a, b := resident.shape(false), other.shape(false); a != b {
					t.Fatalf("%s and resident replays diverge:\n resident\n%s %s\n%s", name, a, name, b)
				}
			}
		})
	}
}

// A kept wrap key that no longer opens the record (here: corrupted) must not
// yield a key: Refresh falls back to the full decrypt, which also repairs
// the memo.
func TestStaleWrapKeyFallsBackToDecrypt(t *testing.T) {
	w := newRewrapWorld(t, 7, modeResident)
	w.create(9)
	all := sorted(w.members)
	victim := all[0]
	var elsewhere []string
	for _, u := range all {
		if !w.ownRecord(victim).ContainsMember(u) {
			elsewhere = append(elsewhere, u)
		}
	}
	cl := w.clients[victim]
	rewrapped := func(leaver string) [kdf.KeySize]byte {
		c1 := w.ownRecord(victim).CT.C1
		up, err := w.mgr().RemoveUser(w.group, leaver)
		if err != nil {
			t.Fatal(err)
		}
		delete(w.members, leaver)
		w.publish(up)
		if !w.r.encl.Scheme().P.G1.Equal(c1, w.ownRecord(victim).CT.C1) {
			t.Fatal("the victim's partition was re-keyed, not re-wrapped")
		}
		gk, err := cl.Refresh(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := cl.dec.DecryptRecord(w.group, w.ownRecord(victim))
		if err != nil {
			t.Fatal(err)
		}
		if gk != want {
			t.Fatal("Refresh returned a key the record does not hold")
		}
		return gk
	}

	cl.wk[0] ^= 1
	decrypts, unwraps := cl.Decrypts(), cl.Unwraps()
	first := rewrapped(elsewhere[0])
	if cl.Decrypts() != decrypts+1 || cl.Unwraps() != unwraps {
		t.Fatalf("stale wrap key: %d decrypts, %d unwraps", cl.Decrypts()-decrypts, cl.Unwraps()-unwraps)
	}
	if rewrapped(elsewhere[1]) == first {
		t.Fatal("second removal kept the group key")
	}
	if cl.Decrypts() != decrypts+1 || cl.Unwraps() != unwraps+1 {
		t.Fatalf("repaired wrap key: %d decrypts, %d unwraps", cl.Decrypts()-decrypts, cl.Unwraps()-unwraps)
	}
}
