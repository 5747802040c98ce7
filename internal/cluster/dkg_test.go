package cluster

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/dkg"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// thresholdOptions is the n-shard threshold-mode test configuration.
func thresholdOptions(n int, store storage.Store) Options {
	return Options{
		Shards:       n,
		Capacity:     8,
		Store:        store,
		Seed:         42,
		LeaseTTL:     500 * time.Millisecond,
		Provisioning: ProvisionThreshold,
	}
}

// thresholdOf is the cluster's threshold provisioner: the tests extract
// with the first live holder as combiner (extractVia with no coordinator)
// and read its committed record beneath the KeyProvisioner surface.
func thresholdOf(c *Cluster) *thresholdProvisioner { return c.Provisioner().(*thresholdProvisioner) }

// thresholdClient provisions a user key through the provisioner's quorum
// protocol (no enclave holds the full secret) and returns a store client —
// the threshold-mode analogue of clientFor.
func (tc *testCluster) thresholdClient(t *testing.T, id, group string) *client.Client {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := thresholdOf(tc.c).extractVia("", id, priv.PublicKey())
	if err != nil {
		t.Fatalf("threshold extract for %s: %v", id, err)
	}
	// Find the enclave whose identity key signed it (combiner = first live
	// holder when no coordinator is named).
	scheme := tc.c.Shards()[0].Encl.Scheme()
	var opened bool
	var cl *client.Client
	for _, s := range tc.c.Shards() {
		u, err := prov.Open(scheme, s.Encl.IdentityPublicKey(), priv)
		if err != nil {
			continue
		}
		cl, err = client.New(scheme, tc.c.Provisioner().PublicKey(), id, u, tc.c.Store, group)
		if err != nil {
			t.Fatal(err)
		}
		opened = true
		break
	}
	if !opened {
		t.Fatalf("no shard enclave's identity key verifies the provisioned key for %s", id)
	}
	return cl
}

// TestThresholdBootstrapAndExtract is the core acceptance scenario at n=4,
// d=1 (quorum 3, recovery 2): after bootstrap no enclave holds the full
// master secret, the published commitments bind the sharing to the master
// public key, blinded quorum extraction yields working user keys, and a
// single surviving share cannot extract.
func TestThresholdBootstrapAndExtract(t *testing.T) {
	t.Parallel()
	tc := startCluster(t, thresholdOptions(4, nil))
	ctx := context.Background()

	// No shard enclave holds the full master secret, every member holds a
	// verified share.
	for _, s := range tc.c.Shards() {
		if s.Encl.HasMasterSecret() {
			t.Fatalf("%s still holds the full master secret after DKG", s.ID)
		}
		if _, _, ok := s.Encl.ShareInfo(); !ok {
			t.Fatalf("%s holds no threshold share", s.ID)
		}
	}

	// The published record's zeroth commitment equals h^γ = HPowers[1]: the
	// sharing provably commits to the SAME secret as the master public key.
	rec, _, err := membership.Load(ctx, tc.c.Store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DKG == nil {
		t.Fatal("membership record carries no DKG record")
	}
	if rec.DKG.Degree != dkg.PrivacyDegree(4) {
		t.Fatalf("degree = %d, want %d", rec.DKG.Degree, dkg.PrivacyDegree(4))
	}
	pk := tc.c.Provisioner().PublicKey()
	scheme := tc.c.Shards()[0].Encl.Scheme()
	comms, err := rec.DKG.ParseCommitments(scheme.P.G1)
	if err != nil {
		t.Fatal(err)
	}
	if !scheme.P.G1.Equal(comms[0], pk.HPowers[1]) {
		t.Fatal("zeroth commitment does not equal h^γ from the master public key")
	}

	// Full-cluster group flow: create a group through the gateway, then
	// decrypt with threshold-provisioned user keys.
	users := groupUsers("thr", 12)
	if err := tc.api.CreateGroup(ctx, "thr", users); err != nil {
		t.Fatal(err)
	}
	gk1, err := tc.thresholdClient(t, users[0], "thr").GroupKey(ctx)
	if err != nil {
		t.Fatalf("threshold-provisioned member cannot decrypt: %v", err)
	}
	gk2, err := tc.thresholdClient(t, users[7], "thr").GroupKey(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gk1 != gk2 {
		t.Fatal("two members derive different group keys")
	}

	// Kill d = 1 holder: a full blinded quorum (3 of 4) still exists.
	tc.c.Shards()[3].Kill()
	if _, err := thresholdOf(tc.c).extractVia("", users[1], newECDHPub(t)); err != nil {
		t.Fatalf("extraction with 3 of 4 holders: %v", err)
	}

	// Kill another (t−1 = 2 dead total): below the blinded quorum but at
	// the recovery floor — the degraded path must still extract.
	tc.c.Shards()[2].Kill()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := thresholdOf(tc.c).extractVia("", users[2], priv.PublicKey())
	if err != nil {
		t.Fatalf("extraction with 2 of 4 holders (recovery path): %v", err)
	}
	uk, err := prov.Open(scheme, tc.c.Shards()[0].Encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatalf("recovery-path key rejected: %v", err)
	}
	cl, err := client.New(scheme, pk, users[2], uk, tc.c.Store, "thr")
	if err != nil {
		t.Fatal(err)
	}
	gk3, err := cl.GroupKey(ctx)
	if err != nil {
		t.Fatalf("recovery-path key cannot decrypt: %v", err)
	}
	if gk3 != gk1 {
		t.Fatal("recovery-path key derives a different group key")
	}

	// Kill a third: one live share is below the d+1 recovery floor — the
	// secret is unrecoverable from a single share, by design.
	tc.c.Shards()[1].Kill()
	if _, err := thresholdOf(tc.c).extractVia("", users[3], newECDHPub(t)); err == nil {
		t.Fatal("a single share sufficed to extract — threshold is broken")
	}
}

// TestThresholdBootstrapIsTheFirstReshare bootstraps threshold clusters of
// 1, 2 and 4 shards. Bootstrap is a reshare from the dealer's degree-0
// sharing, so at every size the published record sits at the boot epoch
// and commits to h^γ, every member commits a verified share at that
// generation, no enclave — the dealer included — keeps the full secret, the
// reshare counter still reads 0, and a quorum-extracted key decrypts a
// group created after bootstrap.
func TestThresholdBootstrapIsTheFirstReshare(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			tc := startCluster(t, thresholdOptions(n, nil))
			ctx := context.Background()
			boot := tc.c.Epoch()
			rec, _, err := membership.Load(ctx, tc.c.Store)
			if err != nil {
				t.Fatal(err)
			}
			if rec.DKG == nil || rec.DKG.Generation != boot || len(rec.DKG.Holders) != n || rec.DKG.Degree != dkg.PrivacyDegree(n) {
				t.Fatalf("published sharing %+v, want generation %d over %d holders at degree %d", rec.DKG, boot, n, dkg.PrivacyDegree(n))
			}
			scheme := tc.c.Shards()[0].Encl.Scheme()
			comms, err := rec.DKG.ParseCommitments(scheme.P.G1)
			if err != nil {
				t.Fatal(err)
			}
			if !scheme.P.G1.Equal(comms[0], tc.c.Provisioner().PublicKey().HPowers[1]) {
				t.Fatal("commitments[0] is not PK.HPowers[1]")
			}
			for _, s := range tc.c.Shards() {
				if gen, index, ok := s.Encl.ShareInfo(); !ok || gen != boot || index != rec.DKG.Index(s.ID) {
					t.Fatalf("%s share (gen %d, index %d, ok %v), want (gen %d, index %d)", s.ID, gen, index, ok, boot, rec.DKG.Index(s.ID))
				}
				if s.Encl.HasMasterSecret() {
					t.Fatalf("%s kept the full master secret after bootstrap", s.ID)
				}
			}
			if got := tc.c.Provisioner().Status().Reshares; got != 0 {
				t.Fatalf("bootstrap counted as %d epoch reshares", got)
			}
			users := groupUsers("boot", 4)
			if err := tc.api.CreateGroup(ctx, "boot", users); err != nil {
				t.Fatal(err)
			}
			if _, err := tc.thresholdClient(t, users[2], "boot").GroupKey(ctx); err != nil {
				t.Fatalf("quorum-extracted key cannot decrypt: %v", err)
			}
		})
	}
}

func newECDHPub(t *testing.T) *ecdh.PublicKey {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return priv.PublicKey()
}

// TestThresholdRestartPreservesMasterKey restarts a threshold cluster on
// the same platform and store: the new incarnation must re-adopt the
// persisted shares (no fresh-secret mint), so the master public key — and
// every existing ciphertext and user key — survives.
func TestThresholdRestartPreservesMasterKey(t *testing.T) {
	t.Parallel()
	store := storage.NewMemStore(storage.Latency{})
	platform, err := enclave.NewPlatform("restart-platform", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	opts := thresholdOptions(4, store)
	opts.Platform = platform

	tc := startCluster(t, opts)
	ctx := context.Background()
	users := groupUsers("persist", 6)
	if err := tc.api.CreateGroup(ctx, "persist", users); err != nil {
		t.Fatal(err)
	}
	scheme := tc.c.Shards()[0].Encl.Scheme()
	pkBefore := scheme.MarshalPublicKey(tc.c.Provisioner().PublicKey())

	// Provision a user key BEFORE the restart; it must stay valid after.
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := thresholdOf(tc.c).extractVia("", users[0], priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	uk, err := prov.Open(scheme, tc.c.Shards()[0].Encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}

	// Reshare before the restart (epoch bump over the same member set), so
	// the restart must adopt the RESHARED commitments, not the bootstrap
	// generation's.
	if _, err := tc.c.ApplyMembership(ctx, tc.c.Membership().Members()); err != nil {
		t.Fatalf("reshare epoch bump: %v", err)
	}
	genBefore := thresholdOf(tc.c).Record().Generation
	if genBefore != tc.c.Epoch() {
		t.Fatalf("reshare generation %d != epoch %d", genBefore, tc.c.Epoch())
	}

	if err := tc.c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart: same store, same platform (the share blobs are sealed to
	// it). Provisioning mode is even forced by the persisted DKG record.
	c2, err := New(Options{Shards: 1, Capacity: 8, Store: store, Seed: 43, Platform: platform})
	if err != nil {
		t.Fatalf("threshold restart: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c2.Shutdown(ctx)
	}()
	pkAfter := scheme.MarshalPublicKey(c2.Provisioner().PublicKey())
	if string(pkBefore) != string(pkAfter) {
		t.Fatal("restart minted a fresh master key")
	}
	if got := thresholdOf(c2).Record().Generation; got != genBefore {
		t.Fatalf("restart adopted generation %d, want the reshared %d", got, genBefore)
	}
	for _, s := range c2.Shards() {
		if s.Encl.HasMasterSecret() {
			t.Fatalf("%s restarted with the full master secret", s.ID)
		}
		if _, _, ok := s.Encl.ShareInfo(); !ok {
			t.Fatalf("%s restarted without its share", s.ID)
		}
	}

	// Both a pre-restart key and a freshly extracted one decrypt the
	// pre-restart group state.
	cl, err := client.New(scheme, c2.Provisioner().PublicKey(), users[0], uk, store, "persist")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GroupKey(ctx); err != nil {
		t.Fatalf("pre-restart user key no longer decrypts: %v", err)
	}
	priv2, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov2, err := thresholdOf(c2).extractVia("", users[1], priv2.PublicKey())
	if err != nil {
		t.Fatalf("post-restart extraction: %v", err)
	}
	var uk2opened bool
	for _, s := range c2.Shards() {
		if u, err := prov2.Open(scheme, s.Encl.IdentityPublicKey(), priv2); err == nil {
			cl2, err := client.New(scheme, c2.Provisioner().PublicKey(), users[1], u, store, "persist")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl2.GroupKey(ctx); err != nil {
				t.Fatalf("post-restart key cannot decrypt pre-restart group: %v", err)
			}
			uk2opened = true
			break
		}
	}
	if !uk2opened {
		t.Fatal("post-restart provisioned key verifies under no enclave")
	}
}

// TestThresholdGrowShrinkReshares drives the 2→4→2 elasticity scenario:
// operator-driven grows and autoscaler-driven shrinks each bump the
// membership epoch, and EVERY bump must complete a reshare — generation
// tracking epoch exactly — while extraction and group operations keep
// working at each size, and drained holders provably lose their shares.
func TestThresholdGrowShrinkReshares(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, thresholdOptions(2, store))
	ctx := context.Background()

	users := groupUsers("elastic", 8)
	if err := tc.api.CreateGroup(ctx, "elastic", users); err != nil {
		t.Fatal(err)
	}
	assertResharedTo := func(wantMembers int) {
		t.Helper()
		rec := thresholdOf(tc.c).Record()
		if rec.Generation != tc.c.Epoch() {
			t.Fatalf("generation %d lags epoch %d — a membership bump skipped its reshare", rec.Generation, tc.c.Epoch())
		}
		if len(rec.Holders) != wantMembers {
			t.Fatalf("%d holders after change, want %d", len(rec.Holders), wantMembers)
		}
		for id := range rec.Holders {
			if gen, _, ok := tc.c.Shard(id).Encl.ShareInfo(); !ok || gen != rec.Generation {
				t.Fatalf("holder %s is at generation %d (ok=%v), record at %d", id, gen, ok, rec.Generation)
			}
		}
		if _, err := thresholdOf(tc.c).extractVia("", users[0], newECDHPub(t)); err != nil {
			t.Fatalf("extraction with %d members: %v", wantMembers, err)
		}
	}
	assertResharedTo(2) // bootstrap at epoch 1

	// Operator-driven grow: 2 → 3 → 4, one epoch bump (and reshare) each.
	s3 := tc.addShard(t, ctx)
	assertResharedTo(3)
	s4 := tc.addShard(t, ctx)
	assertResharedTo(4)
	if gen, _, ok := s3.Encl.ShareInfo(); !ok || gen != tc.c.Epoch() {
		t.Fatalf("runtime-minted %s has no current share (gen %d ok=%v)", s3.ID, gen, ok)
	}
	if err := tc.api.AddUser(ctx, "elastic", "grown@example.com"); err != nil {
		t.Fatal(err)
	}

	// Autoscaler-driven shrink: the idle controller drains 4 → 2 through
	// the same persisted-membership path; each drain reshares.
	as := NewAutoscaler(tc.c, AutoscalerConfig{
		Min:      2,
		Max:      4,
		GrowLoad: 1 << 40, // never grow; idle load is far below GrowLoad/8
		Interval: 20 * time.Millisecond,
	})
	as.Start()
	waitUntil(t, 20*time.Second, "autoscaler to drain the cluster to 2 members", func() bool {
		return len(tc.c.Membership().Members()) == 2
	})
	as.Stop()
	waitUntil(t, 10*time.Second, "final drain's reshare to land", func() bool {
		return thresholdOf(tc.c).Record().Generation == tc.c.Epoch()
	})
	assertResharedTo(2)

	// Proactive security: the drained ex-holders wiped their shares, so no
	// coalition of retired shards can reconstruct anything.
	final := thresholdOf(tc.c).Record()
	for _, s := range []*Shard{s3, s4} {
		if _, held := final.Holders[s.ID]; held {
			continue // autoscaler happened to keep this one
		}
		if _, _, ok := s.Encl.ShareInfo(); ok {
			t.Fatalf("drained %s still holds a share", s.ID)
		}
	}

	// The group survives the whole 2→4→2 ride, and threshold-provisioned
	// keys still decrypt it.
	if err := tc.api.AddUser(ctx, "elastic", "post-shrink@example.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.thresholdClient(t, users[1], "elastic").GroupKey(ctx); err != nil {
		t.Fatalf("decrypt after grow/shrink: %v", err)
	}
}

// TestThresholdReshareSupersededMidFlight injects a competing membership
// publish (a concurrent gateway) into the instant between a reshare's deal
// and its record publish: the reshare must abort cleanly — pending shares
// dropped, committed generation untouched — and the discovery watcher's
// adoption of the newer epoch must then complete ITS reshare.
func TestThresholdReshareSupersededMidFlight(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, thresholdOptions(3, store))
	ctx := context.Background()

	users := groupUsers("race", 6)
	if err := tc.api.CreateGroup(ctx, "race", users); err != nil {
		t.Fatal(err)
	}

	tp := tc.c.Provisioner().(*thresholdProvisioner)
	var injected bool
	tp.beforePublish = func() {
		if injected {
			return
		}
		injected = true
		// A "second gateway" wins the store race: bump the membership epoch
		// over the same member set (carrying the committed DKG forward,
		// exactly as applyMembership would) before our publish lands.
		rec, ver, err := membership.Load(ctx, store)
		if err != nil {
			t.Errorf("injector load: %v", err)
			return
		}
		rec.Epoch++
		if err := membership.Publish(ctx, store, rec, ver); err != nil {
			t.Errorf("injector publish: %v", err)
		}
	}

	// Trigger a reshare; its publish loses to the injected epoch.
	startGen := tp.Record().Generation
	if _, err := tc.c.ApplyMembership(ctx, tc.c.Membership().Members()); err != nil {
		t.Fatalf("epoch bump: %v", err)
	}
	if !injected {
		t.Fatal("beforePublish hook never fired — no reshare ran")
	}

	// The watcher discovers the injected epoch and reshares for it; the
	// superseded attempt must have left no trace (generation goes straight
	// from startGen to the injected epoch).
	waitUntil(t, 15*time.Second, "superseding epoch's reshare to complete", func() bool {
		rec := tp.Record()
		return rec.Generation == tc.c.Epoch() && rec.Generation > startGen
	})
	for _, s := range tc.c.Shards() {
		if gen, _, ok := s.Encl.ShareInfo(); !ok || gen != tc.c.Epoch() {
			t.Fatalf("%s at generation %d (ok=%v), want %d", s.ID, gen, ok, tc.c.Epoch())
		}
	}
	if _, err := thresholdOf(tc.c).extractVia("", users[0], newECDHPub(t)); err != nil {
		t.Fatalf("extraction after superseded reshare: %v", err)
	}
	if _, err := tc.thresholdClient(t, users[1], "race").GroupKey(ctx); err != nil {
		t.Fatalf("decrypt after superseded reshare: %v", err)
	}
}

// TestThresholdCommitFailureHealsFromPublishedRecord breaks one member's
// pending reshare (dropping it between the publish decision and the
// commit) so its EcallCommitReshare fails AFTER the new record is durable:
// the provisioner must still install the new generation — never stranding
// itself on the superseded record while other members committed — and heal
// the failed member by restoring from the published sealed share blob.
func TestThresholdCommitFailureHealsFromPublishedRecord(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, thresholdOptions(3, store))
	ctx := context.Background()

	users := groupUsers("heal", 6)
	if err := tc.api.CreateGroup(ctx, "heal", users); err != nil {
		t.Fatal(err)
	}

	tp := tc.c.Provisioner().(*thresholdProvisioner)
	victim := tc.c.Shards()[1]
	var broke bool
	tp.beforePublish = func() {
		if broke {
			return
		}
		broke = true
		// The victim "loses" its adopted pending share just before the
		// publish lands, so its commit for the new generation must fail.
		victim.Encl.EcallDropReshare(tc.c.Epoch())
	}
	if _, err := tc.c.ApplyMembership(ctx, tc.c.Membership().Members()); err != nil {
		t.Fatalf("epoch bump: %v", err)
	}
	if !broke {
		t.Fatal("beforePublish hook never fired — no reshare ran")
	}

	// The provisioner is on the published generation, and the victim was
	// healed (restored from the record's sealed blob), not quarantined.
	rec := tp.Record()
	if rec.Generation != tc.c.Epoch() {
		t.Fatalf("provisioner at generation %d, epoch %d — stranded on the superseded record", rec.Generation, tc.c.Epoch())
	}
	for _, s := range tc.c.Shards() {
		if gen, _, ok := s.Encl.ShareInfo(); !ok || gen != rec.Generation {
			t.Fatalf("%s at generation %d (ok=%v), want %d", s.ID, gen, ok, rec.Generation)
		}
	}

	// With all 3 members healed the blinded quorum (2d+1 = 3) works — an
	// unhealed victim would force every extraction into degraded recovery.
	if _, err := thresholdOf(tc.c).extractVia("", users[0], newECDHPub(t)); err != nil {
		t.Fatalf("extraction after healed commit failure: %v", err)
	}
	if _, err := tc.thresholdClient(t, users[1], "heal").GroupKey(ctx); err != nil {
		t.Fatalf("decrypt after healed commit failure: %v", err)
	}
}

// TestThresholdKillDuringReshare kills t−1 = 2 of 4 shards in the middle
// of a reshare (after the deal, before the publish): the reshare still
// commits — the enclave objects outlive their serving loops — and
// extraction keeps working through the degraded recovery path with the two
// survivors.
func TestThresholdKillDuringReshare(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, thresholdOptions(4, store))
	ctx := context.Background()

	users := groupUsers("carnage", 6)
	if err := tc.api.CreateGroup(ctx, "carnage", users); err != nil {
		t.Fatal(err)
	}

	tp := tc.c.Provisioner().(*thresholdProvisioner)
	var killed bool
	tp.beforePublish = func() {
		if killed {
			return
		}
		killed = true
		tc.c.Shards()[2].Kill()
		tc.c.Shards()[3].Kill()
	}
	if _, err := tc.c.ApplyMembership(ctx, tc.c.Membership().Members()); err != nil {
		t.Fatalf("epoch bump: %v", err)
	}
	if !killed {
		t.Fatal("kill hook never fired")
	}
	rec := tp.Record()
	if rec.Generation != tc.c.Epoch() {
		t.Fatalf("reshare did not complete: generation %d, epoch %d", rec.Generation, tc.c.Epoch())
	}

	// Only 2 of 4 holders live — below the blinded quorum (3), at the
	// recovery floor (2): extraction must still succeed.
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := thresholdOf(tc.c).extractVia("", users[0], priv.PublicKey())
	if err != nil {
		t.Fatalf("extraction with 2 survivors: %v", err)
	}
	scheme := tc.c.Shards()[0].Encl.Scheme()
	uk, err := prov.Open(scheme, tc.c.Shards()[0].Encl.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(scheme, tc.c.Provisioner().PublicKey(), users[0], uk, store, "carnage")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GroupKey(ctx); err != nil {
		t.Fatalf("survivor-extracted key cannot decrypt: %v", err)
	}
}
