package enclave

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/dkg"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// dealTestShares bootstraps an n-enclave threshold sharing on one platform
// the way a cluster does: enclave 0 runs Setup and holds γ as the
// degree-0 genesis sharing, which it reshares to generation 1 over every
// enclave (itself included); once all commit, no enclave holds the full
// secret.
func dealTestShares(t *testing.T, platform *Platform, n int) (map[string]*IBBEEnclave, *dkg.Record, []string) {
	t.Helper()
	params := pairing.TypeA160()
	ids := make([]string, n)
	encls := make(map[string]*IBBEEnclave, n)
	indices := make([]int, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("shard-%d", i)
		ie, err := NewIBBEEnclave(platform, params)
		if err != nil {
			t.Fatalf("NewIBBEEnclave: %v", err)
		}
		ids[i] = id
		encls[id] = ie
		indices[i] = i + 1
	}
	dealer := encls[ids[0]]
	if _, _, err := dealer.EcallSetup(8); err != nil {
		t.Fatalf("EcallSetup: %v", err)
	}
	genesis, err := dealer.EcallGenesisShare(ids[0])
	if err != nil {
		t.Fatalf("EcallGenesisShare: %v", err)
	}
	const gen = 1
	degree := dkg.PrivacyDegree(n)
	comms, blobs, err := dealer.EcallSubDeal(gen, degree, indices)
	if err != nil {
		t.Fatalf("EcallSubDeal: %v", err)
	}
	rec := &dkg.Record{
		Generation:   gen,
		Degree:       degree,
		ExtractBase:  genesis.ExtractBase,
		MasterPK:     genesis.MasterPK,
		Holders:      make(map[string]int, n),
		SealedShares: make(map[string][]byte, n),
	}
	for i, id := range ids {
		sealed, combined, err := encls[id].EcallAdoptReshare(genesis, gen, degree, i+1, []int{1}, map[int][][]byte{1: comms}, map[int][]byte{1: blobs[i+1]})
		if err != nil {
			t.Fatalf("%s EcallAdoptReshare: %v", id, err)
		}
		rec.Holders[id] = i + 1
		rec.SealedShares[id] = sealed
		rec.Commitments = combined
	}
	for _, id := range ids {
		if err := encls[id].EcallCommitReshare(gen); err != nil {
			t.Fatalf("%s EcallCommitReshare: %v", id, err)
		}
	}
	return encls, rec, ids
}

// runBlindRound drives rounds 1 and 2 of a blinded extraction over the
// first 2d+1 holders, returning the sealed partials plus the quorum used.
func runBlindRound(t *testing.T, encls map[string]*IBBEEnclave, rec *dkg.Record, ids []string, id string, nonce []byte) ([][]byte, []string) {
	t.Helper()
	quorum := ids[:dkg.Quorum(rec.Degree)]
	indices := make([]int, len(quorum))
	for k, sid := range quorum {
		indices[k] = rec.Index(sid)
	}
	byTarget := make(map[int]map[int][]byte, len(quorum))
	for _, sid := range quorum {
		out, err := encls[sid].EcallBlindRound(rec.Generation, id, nonce, indices)
		if err != nil {
			t.Fatalf("%s EcallBlindRound: %v", sid, err)
		}
		for target, blob := range out {
			if byTarget[target] == nil {
				byTarget[target] = make(map[int][]byte, len(quorum))
			}
			byTarget[target][rec.Index(sid)] = blob
		}
	}
	partials := make([][]byte, 0, len(quorum))
	for _, sid := range quorum {
		part, err := encls[sid].EcallPartialExtract(rec.Generation, id, nonce, indices, byTarget[rec.Index(sid)])
		if err != nil {
			t.Fatalf("%s EcallPartialExtract: %v", sid, err)
		}
		partials = append(partials, part)
	}
	return partials, quorum
}

// TestBlindedExtractionEndToEnd runs the full sealed protocol at n=3 (d=1,
// quorum 3) and cross-checks the blinded result against the degraded
// recovery path: both must derive the SAME user secret key.
func TestBlindedExtractionEndToEnd(t *testing.T) {
	platform := newPlatform(t)
	encls, rec, ids := dealTestShares(t, platform, 3)
	combiner := encls[ids[0]]
	user := "alice@example.com"

	nonce := []byte("blind-round-0001")
	partials, _ := runBlindRound(t, encls, rec, ids, user, nonce)
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := combiner.EcallCombineExtract(user, priv.PublicKey(), rec.Generation, rec.Degree, nonce, partials)
	if err != nil {
		t.Fatalf("EcallCombineExtract: %v", err)
	}
	ukBlind, err := prov.Open(combiner.Scheme(), combiner.IdentityPublicKey(), priv)
	if err != nil {
		t.Fatalf("opening blinded key: %v", err)
	}

	// Recovery path with d+1 = 2 exported shares must agree.
	rnonce := []byte("recover-round-01")
	blobs := make([][]byte, 0, 2)
	for _, sid := range ids[:2] {
		blob, err := encls[sid].EcallExportShare(rnonce)
		if err != nil {
			t.Fatalf("%s EcallExportShare: %v", sid, err)
		}
		blobs = append(blobs, blob)
	}
	priv2, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	prov2, err := combiner.EcallRecoverExtract(user, priv2.PublicKey(), rnonce, rec, blobs)
	if err != nil {
		t.Fatalf("EcallRecoverExtract: %v", err)
	}
	ukRecover, err := prov2.Open(combiner.Scheme(), combiner.IdentityPublicKey(), priv2)
	if err != nil {
		t.Fatalf("opening recovery key: %v", err)
	}
	if !combiner.Scheme().P.G1.Equal(ukBlind.D, ukRecover.D) {
		t.Fatal("blinded and recovery extraction disagree on the user secret key")
	}
}

// TestPartialExtractNonceOneTimeUse: a holder combines its share under a
// given nonce exactly once — replaying the same sealed round-1
// contributions into a second EcallPartialExtract is refused, so the host
// cannot farm related partials from one blinding.
func TestPartialExtractNonceOneTimeUse(t *testing.T) {
	platform := newPlatform(t)
	encls, rec, ids := dealTestShares(t, platform, 3)
	user := "alice@example.com"
	nonce := []byte("one-time-nonce-1")

	quorum := ids[:dkg.Quorum(rec.Degree)]
	indices := make([]int, len(quorum))
	for k, sid := range quorum {
		indices[k] = rec.Index(sid)
	}
	byTarget := make(map[int]map[int][]byte)
	for _, sid := range quorum {
		out, err := encls[sid].EcallBlindRound(rec.Generation, user, nonce, indices)
		if err != nil {
			t.Fatal(err)
		}
		for target, blob := range out {
			if byTarget[target] == nil {
				byTarget[target] = make(map[int][]byte)
			}
			byTarget[target][rec.Index(sid)] = blob
		}
	}
	target := quorum[1]
	contribs := byTarget[rec.Index(target)]
	if _, err := encls[target].EcallPartialExtract(rec.Generation, user, nonce, indices, contribs); err != nil {
		t.Fatalf("first partial extract: %v", err)
	}
	if _, err := encls[target].EcallPartialExtract(rec.Generation, user, nonce, indices, contribs); !errors.Is(err, ErrNonceReplayed) {
		t.Fatalf("replayed round accepted: err = %v, want ErrNonceReplayed", err)
	}
}

// TestBlindRoundBoundToIdentity: a blinding dealt for one identity cannot
// be evaluated at another — the attack where the host replays one round's
// contributions under two ids to get r·(γ+H(id1)) and r·(γ+H(id2)) with
// the SAME r and solves linearly for γ.
func TestBlindRoundBoundToIdentity(t *testing.T) {
	platform := newPlatform(t)
	encls, rec, ids := dealTestShares(t, platform, 3)
	nonce := []byte("identity-bound-1")

	quorum := ids[:dkg.Quorum(rec.Degree)]
	indices := make([]int, len(quorum))
	for k, sid := range quorum {
		indices[k] = rec.Index(sid)
	}
	byTarget := make(map[int]map[int][]byte)
	for _, sid := range quorum {
		out, err := encls[sid].EcallBlindRound(rec.Generation, "alice@example.com", nonce, indices)
		if err != nil {
			t.Fatal(err)
		}
		for target, blob := range out {
			if byTarget[target] == nil {
				byTarget[target] = make(map[int][]byte)
			}
			byTarget[target][rec.Index(sid)] = blob
		}
	}
	target := quorum[0]
	if _, err := encls[target].EcallPartialExtract(rec.Generation, "mallory@example.com", nonce, indices, byTarget[rec.Index(target)]); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatalf("contributions dealt for alice evaluated at mallory: err = %v, want ErrSealedDataCorrupt", err)
	}
}

// TestExtractionGenerationBound: every extraction ECALL refuses a round for
// a generation other than its committed share's, and the combiner cannot
// open partials sealed under a different generation — a holder left behind
// by a reshare fails loudly instead of corrupting the combined key.
func TestExtractionGenerationBound(t *testing.T) {
	platform := newPlatform(t)
	encls, rec, ids := dealTestShares(t, platform, 3)
	user := "alice@example.com"
	nonce := []byte("generation-bound")

	indices := []int{1, 2, 3}
	if _, err := encls[ids[0]].EcallBlindRound(rec.Generation+1, user, nonce, indices); !errors.Is(err, ErrShareGeneration) {
		t.Fatalf("blind round at wrong generation: err = %v, want ErrShareGeneration", err)
	}
	if _, err := encls[ids[0]].EcallPartialExtract(rec.Generation+1, user, nonce, indices, nil); !errors.Is(err, ErrShareGeneration) {
		t.Fatalf("partial extract at wrong generation: err = %v, want ErrShareGeneration", err)
	}

	partials, _ := runBlindRound(t, encls, rec, ids, user, []byte("gen-bound-real-1"))
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encls[ids[0]].EcallCombineExtract(user, priv.PublicKey(), rec.Generation+1, rec.Degree, []byte("gen-bound-real-1"), partials); !errors.Is(err, ErrSealedDataCorrupt) {
		t.Fatalf("combine opened partials under the wrong generation: err = %v, want ErrSealedDataCorrupt", err)
	}
}

// TestPlatformStateRoundTrip: a platform reloaded from MarshalState opens
// blobs the original sealed (same fused sealing secret — the property a
// threshold cluster restart depends on), and corrupt state fails loudly.
func TestPlatformStateRoundTrip(t *testing.T) {
	p1 := newPlatform(t)
	e1 := p1.Launch(IBBEMeasurement())
	blob, err := e1.Seal([]byte("share material"), []byte("label"))
	if err != nil {
		t.Fatal(err)
	}

	state, err := p1.MarshalState()
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	p2, err := LoadPlatform(state)
	if err != nil {
		t.Fatalf("LoadPlatform: %v", err)
	}
	if p2.ID() != p1.ID() {
		t.Fatalf("reloaded platform ID %q, want %q", p2.ID(), p1.ID())
	}
	out, err := p2.Launch(IBBEMeasurement()).Unseal(blob, []byte("label"))
	if err != nil {
		t.Fatalf("reloaded platform cannot unseal the original's blob: %v", err)
	}
	if string(out) != "share material" {
		t.Fatalf("unsealed %q", out)
	}
	// A DIFFERENT platform still cannot.
	if _, err := newPlatform(t).Launch(IBBEMeasurement()).Unseal(blob, []byte("label")); err == nil {
		t.Fatal("foreign platform unsealed the blob")
	}
	if _, err := LoadPlatform([]byte("{broken")); err == nil {
		t.Fatal("corrupt platform state accepted")
	}
}
