package enclave

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// CodeName and CodeVersion identify the IBBE enclave binary; its measurement
// is what the Auditor of Fig. 3 compares against the expected value.
const (
	CodeName    = "ibbe-sgx-enclave"
	CodeVersion = "1.0.0"
)

// IBBEMeasurement returns the expected measurement of the IBBE enclave code.
func IBBEMeasurement() Measurement { return MeasureCode(CodeName, CodeVersion) }

// Errors returned by the handle-taking ECALLs.
var (
	// ErrBadHandle reports a re-wrap handle that does not open to a
	// well-formed partition state: truncated, tampered with, sealed for
	// another group, or carrying exponents out of range.
	ErrBadHandle = errors.New("enclave: malformed re-wrap handle")
	// ErrStatelessHandle reports a handle that holds only the wrap key — as
	// threshold shards and the stateless ECALLs mint them, and as every
	// handle was before partitions kept their exponents — given to an ECALL
	// that needs the exponents.
	ErrStatelessHandle = fmt.Errorf("%w: it carries no partition exponents", ErrBadHandle)
)

// PartitionCrypto is the per-partition public output of the enclave: the
// IBBE broadcast ciphertext cᵢ and the group key wrapped under the partition
// broadcast key, yᵢ = AES(SHA(bkᵢ), gk) — the (cᵢ, yᵢ) pairs of Fig. 4.
//
// WrapHandle is the partition's secrets sealed to the enclave, returned by
// every ECALL that mints a broadcast key: the wrap key SHA(bkᵢ), followed —
// when the enclave holds γ — by the exponent state (k, Π) the header derives
// from. The wrap key lets EcallRewrapPartitions publish a new group key to a
// partition whose membership did not shrink without rotating bkᵢ; the
// exponents let the handle-taking ECALLs compute an add, removal or re-key
// through the fixed-base tables. Outside the enclave it is as opaque as the
// sealed group key.
type PartitionCrypto struct {
	CT         *ibbe.Ciphertext
	WrappedGK  []byte
	WrapHandle []byte
}

// IBBEEnclave is the enclave-resident IBBE-SGX code: the only holder of the
// master secret key and the plaintext group keys. Every exported method is
// an ECALL; none of them ever returns the master secret or a plaintext group
// key, which is the paper's zero-knowledge guarantee against curious
// administrators. Safe for concurrent use: like a multi-threaded SGX enclave
// with several TCS slots, independent ECALLs proceed in parallel. Only
// EcallSetup/EcallRestore write the key material; every other ECALL takes a
// read lock, and the scheme underneath is stateless.
type IBBEEnclave struct {
	enc    *Enclave
	scheme *ibbe.Scheme

	// Obs, when set, receives the wall-clock duration of each group-state
	// ECALL, keyed by a short call name ("extract", "rekey", ...). The
	// observability plane feeds these into per-call latency histograms; an
	// enclave cannot import the registry itself (the trust boundary points
	// the other way), so the hook is a plain function set at mint time.
	Obs func(call string, seconds float64)

	mu  sync.RWMutex
	msk *ibbe.MasterSecretKey
	pk  *ibbe.PublicKey

	// wraps holds the wrap ciphers of re-wrap handles this enclave has
	// opened, for EcallRewrapPartitions; each set has its own lock.
	wraps *wrapTable

	// thr is the enclave's threshold share of γ when the cluster runs in
	// DKG mode (msk is then nil: the full secret never rests here).
	// pendingThr stages an adopted-but-uncommitted reshare so a publish
	// failure can roll back to the active share (see EcallAdoptReshare).
	thr        *thresholdShare
	pendingThr *thresholdShare

	// usedNonces/nonceOrder are the bounded replay ledger for blinded
	// extractions (see EcallPartialExtract); nonceMu guards them separately
	// because partial extraction only holds mu for reading.
	nonceMu    sync.Mutex
	usedNonces map[string]struct{}
	nonceOrder []string

	// idKey is the enclave identity key generated at launch (Fig. 3 step 0);
	// its public half is certified by the Auditor/CA after attestation.
	idKey *ecdsa.PrivateKey
}

// NewIBBEEnclave launches the IBBE enclave code on a platform and generates
// the enclave identity key pair inside.
func NewIBBEEnclave(p *Platform, params *pairing.Params) (*IBBEEnclave, error) {
	idKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave: generating identity key: %w", err)
	}
	return &IBBEEnclave{
		enc:    p.Launch(IBBEMeasurement()),
		scheme: ibbe.NewScheme(params),
		wraps:  newWrapTable(),
		idKey:  idKey,
	}, nil
}

// Enclave exposes the underlying launched enclave (for attestation).
func (ie *IBBEEnclave) Enclave() *Enclave { return ie.enc }

// timeEcall times one ECALL for the Obs hook; use as
// `defer ie.timeEcall("extract")()`. Free when no hook is installed.
func (ie *IBBEEnclave) timeEcall(call string) func() {
	obs := ie.Obs
	if obs == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { obs(call, time.Since(t0).Seconds()) }
}

// Scheme exposes the (stateless) IBBE scheme, e.g. to attach Metrics.
func (ie *IBBEEnclave) Scheme() *ibbe.Scheme { return ie.scheme }

// IdentityPublicKey returns the enclave's public identity key; REPORTDATA of
// attestation quotes binds to its hash, and the CA certifies it.
func (ie *IBBEEnclave) IdentityPublicKey() *ecdsa.PublicKey {
	return &ie.idKey.PublicKey
}

// IdentityKeyHash returns the SHA-256 of the marshalled identity public key,
// the value embedded as quote REPORTDATA.
func (ie *IBBEEnclave) IdentityKeyHash() [32]byte {
	b := elliptic.MarshalCompressed(elliptic.P256(), ie.idKey.PublicKey.X, ie.idKey.PublicKey.Y)
	return sha256.Sum256(b)
}

// EcallSetup runs the IBBE system setup for maximal partition size m. The
// master secret stays inside; the public key and a sealed copy of MSK (for
// restart persistence) are returned. This is the Fig. 6a operation.
func (ie *IBBEEnclave) EcallSetup(m int) (*ibbe.PublicKey, []byte, error) {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	var (
		msk *ibbe.MasterSecretKey
		pk  *ibbe.PublicKey
		err error
	)
	ie.enc.EPCTouch(int64(m)*int64(ie.scheme.P.G1.PointLen()), func() {
		msk, pk, err = ie.scheme.Setup(m, rand.Reader)
	})
	if err != nil {
		return nil, nil, err
	}
	ie.msk = msk
	ie.pk = pk
	sealed, err := ie.sealMSKLocked()
	if err != nil {
		return nil, nil, err
	}
	return pk, sealed, nil
}

// EcallRestore reloads a previously sealed master secret (e.g. after an
// enclave restart) together with the matching public key.
func (ie *IBBEEnclave) EcallRestore(sealedMSK []byte, pk *ibbe.PublicKey) error {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	raw, err := ie.enc.Unseal(sealedMSK, []byte("ibbe-msk"))
	if err != nil {
		return err
	}
	msk, err := unmarshalMSK(ie.scheme, raw)
	if err != nil {
		return err
	}
	ie.msk = msk
	ie.pk = pk
	return nil
}

// EcallExtractUserKey derives the IBBE user secret key for an identity and
// returns it wrapped for the user: ECIES to the user's public key plus an
// ECDSA signature by the enclave identity key over the box (Fig. 3 step 4).
// The plaintext user key never crosses the boundary.
func (ie *IBBEEnclave) EcallExtractUserKey(id string, userPub *ecdh.PublicKey) (*ProvisionedKey, error) {
	defer ie.timeEcall("extract")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.msk == nil {
		if ie.thr != nil {
			return nil, ErrThresholdMode
		}
		return nil, ErrEnclaveNotInitialized
	}
	uk, err := ie.scheme.Extract(ie.msk, id)
	if err != nil {
		return nil, err
	}
	return ie.provisionLocked(id, uk, userPub)
}

// provisionLocked wraps an extracted user key for delivery: ECIES to the
// user's public key, then an ECDSA signature by the enclave identity key.
// Callers hold ie.mu (read or write).
func (ie *IBBEEnclave) provisionLocked(id string, uk *ibbe.UserKey, userPub *ecdh.PublicKey) (*ProvisionedKey, error) {
	box, err := kdf.SealECIES(userPub, ie.scheme.MarshalUserKey(uk), []byte("usk|"+id), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave: wrapping user key: %w", err)
	}
	digest := provisionDigest(id, box)
	sig, err := ecdsa.SignASN1(rand.Reader, ie.idKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("enclave: signing provisioned key: %w", err)
	}
	return &ProvisionedKey{ID: id, Box: box, Sig: sig}, nil
}

// EcallCreatePartition implements the new-partition arm of Algorithm 2
// (lines 3–7): unseal the current group key and wrap it under a brand-new
// partition's broadcast key.
func (ie *IBBEEnclave) EcallCreatePartition(groupLabel string, sealedGK []byte, members []string) (*PartitionCrypto, error) {
	defer ie.timeEcall("create_partition")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.pk == nil {
		return nil, ErrEnclaveNotInitialized
	}
	gk, err := ie.unsealGKLocked(groupLabel, sealedGK)
	if err != nil {
		return nil, err
	}
	var (
		pc       *PartitionCrypto
		innerErr error
	)
	ie.enc.EPCTouch(workingSet(members), func() {
		pc, innerErr = ie.createPartitionLocked(groupLabel, members, gk)
	})
	if innerErr != nil {
		return nil, innerErr
	}
	return pc, nil
}

// EcallAddUsersToPartition implements the existing-partition arm of
// Algorithm 2 (lines 9–12): it extends the partition ciphertext by every new
// user in one ECALL, with a constant number of exponentiations for the whole
// batch (the per-user exponents fold into one Z_r product inside the
// enclave). The broadcast key — and therefore the wrapped group key yᵢ — is
// unchanged.
//
// It and EcallRemoveUsersFromPartition and EcallRekeyPartition are the
// stateless forms: they take only the ciphertext and raise it to a new
// exponent with the variable-time walk, and the handles they mint carry no
// exponents. The manager takes EcallAddUsersWithHandle and
// EcallRekeyWithHandle, which compute the same headers from the sealed
// exponents; a threshold shard re-keys through EcallRekeyPartition.
func (ie *IBBEEnclave) EcallAddUsersToPartition(ct *ibbe.Ciphertext, newUsers []string) (*ibbe.Ciphertext, error) {
	defer ie.timeEcall("add_users")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if err := ie.requireMSKLocked(); err != nil {
		return nil, err
	}
	return ie.scheme.AddUsers(ie.msk, ct, newUsers), nil
}

// EcallAddUsersWithHandle extends a partition by newUsers from its sealed
// exponent state: Π grows by the joiners' factors and C2, C3 are recomputed
// off the h table, with C1 kept from ct. k — and with it bkᵢ, the wrap key
// and yᵢ — is unchanged, so members' kept wrap keys still open yᵢ. It returns
// the new header and the partition's new handle, which the caller stores in
// place of the old one. The new handle seals the same wrap key, so its wrap
// cipher goes into the re-wrap table at once.
func (ie *IBBEEnclave) EcallAddUsersWithHandle(groupLabel string, ct *ibbe.Ciphertext, handle []byte, newUsers []string) (*ibbe.Ciphertext, []byte, error) {
	defer ie.timeEcall("add_users")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if err := ie.requireMSKLocked(); err != nil {
		return nil, nil, err
	}
	wk, st, err := ie.openStateHandleLocked(groupLabel, handle)
	if err != nil {
		return nil, nil, err
	}
	newCT, next := ie.scheme.AddUsersState(ie.msk, ie.pk, ct, st, newUsers)
	newHandle, err := ie.sealHandleLocked(groupLabel, wk, next)
	if err != nil {
		return nil, nil, err
	}
	if err := ie.resealedCipherLocked(wrapHandleLabel(groupLabel), handle, newHandle, wk); err != nil {
		return nil, nil, err
	}
	return newCT, newHandle, nil
}

// EcallRekeyWithHandle re-keys a partition from its sealed exponent state
// under the (sealed) current group key, first removing the users in removed
// (none for a plain re-key): Π loses their factors, a fresh k is drawn and
// the whole header comes off the w and h tables. It is the handle-taking
// form of EcallRemoveUsersFromPartition and EcallRekeyPartition.
func (ie *IBBEEnclave) EcallRekeyWithHandle(groupLabel string, sealedGK, handle []byte, removed []string) (*PartitionCrypto, error) {
	call := "rekey"
	if len(removed) > 0 {
		call = "remove_users"
	}
	defer ie.timeEcall(call)()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if err := ie.requireMSKLocked(); err != nil {
		return nil, err
	}
	_, st, err := ie.openStateHandleLocked(groupLabel, handle)
	if err != nil {
		return nil, err
	}
	gk, err := ie.unsealGKLocked(groupLabel, sealedGK)
	if err != nil {
		return nil, err
	}
	var (
		pc       *PartitionCrypto
		innerErr error
	)
	ie.enc.EPCTouch(int64(ie.scheme.CiphertextLen()), func() {
		bk, ct, next, err := ie.scheme.RemoveUsersState(ie.msk, ie.pk, st, removed, rand.Reader)
		if err != nil {
			innerErr = err
			return
		}
		pc, innerErr = ie.wrapPartitionLocked(groupLabel, bk, ct, next, gk)
	})
	if innerErr != nil {
		return nil, innerErr
	}
	return pc, nil
}

// requireMSKLocked reports why an ECALL that needs γ cannot run: the
// incremental operations multiply or divide by (γ+H(id)), so a threshold
// shard rebuilds partitions classically instead (the core manager routes
// around this via HasMasterSecret).
func (ie *IBBEEnclave) requireMSKLocked() error {
	switch {
	case ie.msk == nil && ie.thr != nil:
		return ErrThresholdMode
	case ie.msk == nil || ie.pk == nil:
		return ErrEnclaveNotInitialized
	}
	return nil
}

// EcallNewGroupKey draws a fresh group key for a group and returns it sealed
// — the first step of Algorithm 3 and of a group re-key, split out as its
// own ECALL so the per-partition re-keying work can be fanned out across
// concurrent ECALLs. The plaintext gk never leaves the enclave; workers pass
// the sealed blob back in.
func (ie *IBBEEnclave) EcallNewGroupKey(groupLabel string) ([]byte, error) {
	defer ie.timeEcall("new_group_key")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.pk == nil {
		return nil, ErrEnclaveNotInitialized
	}
	gk, err := kdf.RandomKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return ie.sealGKLocked(groupLabel, gk)
}

// EcallRekeyPartition re-keys one partition under the (sealed) current group
// key: fresh broadcast key in O(1), new wrapped gk. It is the per-partition
// unit of Algorithm 3 and §A-G that the core worker pool parallelises.
func (ie *IBBEEnclave) EcallRekeyPartition(groupLabel string, sealedGK []byte, ct *ibbe.Ciphertext) (*PartitionCrypto, error) {
	defer ie.timeEcall("rekey")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.pk == nil {
		return nil, ErrEnclaveNotInitialized
	}
	gk, err := ie.unsealGKLocked(groupLabel, sealedGK)
	if err != nil {
		return nil, err
	}
	var (
		pc       *PartitionCrypto
		innerErr error
	)
	ie.enc.EPCTouch(int64(ie.scheme.CiphertextLen()), func() {
		bk, newCT, err := ie.scheme.Rekey(ie.pk, ct, rand.Reader)
		if err != nil {
			innerErr = err
			return
		}
		pc, innerErr = ie.wrapPartitionLocked(groupLabel, bk, newCT, nil, gk)
	})
	if innerErr != nil {
		return nil, innerErr
	}
	return pc, nil
}

// EcallRemoveUsersFromPartition removes a batch of users from one partition
// ciphertext and re-keys it under the (sealed) new group key — the affected-
// partition arm of Algorithm 3, batched: the whole removal costs a constant
// number of exponentiations regardless of how many users leave.
func (ie *IBBEEnclave) EcallRemoveUsersFromPartition(groupLabel string, sealedGK []byte, ct *ibbe.Ciphertext, removed []string) (*PartitionCrypto, error) {
	defer ie.timeEcall("remove_users")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if err := ie.requireMSKLocked(); err != nil {
		return nil, err
	}
	gk, err := ie.unsealGKLocked(groupLabel, sealedGK)
	if err != nil {
		return nil, err
	}
	var (
		pc       *PartitionCrypto
		innerErr error
	)
	ie.enc.EPCTouch(int64(ie.scheme.CiphertextLen()), func() {
		bk, newCT, err := ie.scheme.RemoveUsers(ie.msk, ie.pk, ct, removed, rand.Reader)
		if err != nil {
			innerErr = err
			return
		}
		pc, innerErr = ie.wrapPartitionLocked(groupLabel, bk, newCT, nil, gk)
	})
	if innerErr != nil {
		return nil, innerErr
	}
	return pc, nil
}

// EcallRewrapPartitions publishes the (sealed) current group key to
// partitions whose broadcast keys stay as they are: for each re-wrap handle
// it returns a fresh-nonce yᵢ = AES(SHA(bkᵢ), gk). This is the sweep of a
// revocation over the partitions that lost nobody — the revoked user never
// held their bkᵢ — and it takes no ciphertext, no member list and does no
// pairing-group work. Outputs are in handle order.
//
// A handle this enclave has opened before takes its wrap cipher from the
// table (see wrapTable); only the others are unsealed and built. All the
// nonces come from one read, and every yᵢ is sealed into one slab, each
// output clipped to its own bytes.
func (ie *IBBEEnclave) EcallRewrapPartitions(groupLabel string, sealedGK []byte, handles [][]byte) ([][]byte, error) {
	defer ie.timeEcall("rewrap")()
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	if ie.pk == nil {
		return nil, ErrEnclaveNotInitialized
	}
	gk, err := ie.unsealGKLocked(groupLabel, sealedGK)
	if err != nil {
		return nil, err
	}
	const ySize = kdf.KeySize + kdf.Overhead
	nonces := make([]byte, len(handles)*kdf.NonceSize)
	if _, err := io.ReadFull(rand.Reader, nonces); err != nil {
		return nil, fmt.Errorf("enclave: drawing nonces: %w", err)
	}
	label, aad := wrapHandleLabel(groupLabel), wrapAAD(groupLabel)
	slab := make([]byte, len(handles)*ySize)
	out := make([][]byte, len(handles))
	for i, h := range handles {
		aead, err := ie.wrapCipherLocked(label, h)
		if err != nil {
			return nil, err
		}
		nonce := nonces[i*kdf.NonceSize : (i+1)*kdf.NonceSize]
		out[i] = aead.SealNonce(slab[i*ySize:i*ySize:(i+1)*ySize], nonce, gk[:], aad)
	}
	return out, nil
}

// PublicKey returns the system public key (nil before EcallSetup).
func (ie *IBBEEnclave) PublicKey() *ibbe.PublicKey {
	ie.mu.RLock()
	defer ie.mu.RUnlock()
	return ie.pk
}

// createPartitionLocked builds one partition's (cᵢ, yᵢ) pair. With the full
// master secret it uses the O(|S|) MSK-accelerated encryption; a threshold
// shard (share only, no γ) falls back to classic public-key encryption,
// which costs O(|S|²) in the partition size but needs nothing secret.
func (ie *IBBEEnclave) createPartitionLocked(groupLabel string, members []string, gk [kdf.KeySize]byte) (*PartitionCrypto, error) {
	var (
		bk  *ibbe.BroadcastKey
		ct  *ibbe.Ciphertext
		st  *ibbe.PartitionState
		err error
	)
	if ie.msk != nil {
		bk, ct, st, err = ie.scheme.EncryptMSKState(ie.msk, ie.pk, members, rand.Reader)
	} else {
		bk, ct, err = ie.scheme.EncryptClassic(ie.pk, members, rand.Reader)
	}
	if err != nil {
		return nil, err
	}
	return ie.wrapPartitionLocked(groupLabel, bk, ct, st, gk)
}

// wrapPartitionLocked finishes every ECALL that minted a broadcast key bk for
// ciphertext ct: yᵢ = AES-GCM(SHA-256(bk), gk) — the sgx_aes(sgx_sha(b), gk)
// step of Algorithms 1–3 — plus the partition's re-wrap handle: the wrap key
// and, when the caller has it, the exponent state st the header derives from.
// The wrap cipher that sealed yᵢ goes into the re-wrap table under the new
// handle, so the next revocation's re-wrap of this partition unseals nothing.
func (ie *IBBEEnclave) wrapPartitionLocked(groupLabel string, bk *ibbe.BroadcastKey, ct *ibbe.Ciphertext, st *ibbe.PartitionState, gk [kdf.KeySize]byte) (*PartitionCrypto, error) {
	wk := ie.scheme.P.GTHash(bk)
	aead, err := kdf.NewSealer(wk)
	if err != nil {
		return nil, err
	}
	y, err := aead.Seal(gk[:], wrapAAD(groupLabel), rand.Reader)
	if err != nil {
		return nil, err
	}
	handle, err := ie.sealHandleLocked(groupLabel, wk, st)
	if err != nil {
		return nil, err
	}
	ie.wraps.enter(wrapHandleLabel(groupLabel), handle, aead)
	return &PartitionCrypto{CT: ct, WrappedGK: y, WrapHandle: handle}, nil
}

// wrapHandleLabel is the seal label of a partition's re-wrap handle.
func wrapHandleLabel(groupLabel string) []byte { return []byte("ibbe-wk|" + groupLabel) }

// sealHandleLocked seals a partition's re-wrap handle: wk, then st when
// given — wk ‖ k ‖ Π, or wk alone for a partition whose exponents the
// enclave does not know (threshold shards, the stateless ECALLs).
func (ie *IBBEEnclave) sealHandleLocked(groupLabel string, wk [kdf.KeySize]byte, st *ibbe.PartitionState) ([]byte, error) {
	plain := wk[:]
	if st != nil {
		plain = append(plain, ie.scheme.MarshalPartitionState(st)...)
	}
	return ie.enc.Seal(plain, wrapHandleLabel(groupLabel))
}

// splitHandle splits an unsealed handle into its wrap key and the encoded
// exponent state behind it, which is empty for a wrap-key-only handle. The
// two forms are told apart by length; any other length is refused.
func (ie *IBBEEnclave) splitHandle(raw []byte) (wk [kdf.KeySize]byte, state []byte, err error) {
	switch len(raw) {
	case kdf.KeySize, kdf.KeySize + ie.scheme.PartitionStateLen():
		copy(wk[:], raw)
		return wk, raw[kdf.KeySize:], nil
	}
	return wk, nil, fmt.Errorf("%w: %d bytes unsealed", ErrBadHandle, len(raw))
}

// openStateHandleLocked unseals a handle the handle-taking ECALLs need the
// exponents of, failing closed with ErrBadHandle (or ErrStatelessHandle)
// unless it opens under this group's label to a wrap key and an in-range
// (k, Π).
func (ie *IBBEEnclave) openStateHandleLocked(groupLabel string, handle []byte) ([kdf.KeySize]byte, *ibbe.PartitionState, error) {
	raw, err := ie.enc.Unseal(handle, wrapHandleLabel(groupLabel))
	if err != nil {
		return [kdf.KeySize]byte{}, nil, fmt.Errorf("%w: %w", ErrBadHandle, err)
	}
	wk, state, err := ie.splitHandle(raw)
	if err != nil {
		return wk, nil, err
	}
	if len(state) == 0 {
		return wk, nil, ErrStatelessHandle
	}
	st, err := ie.scheme.UnmarshalPartitionState(state)
	if err != nil {
		return wk, nil, fmt.Errorf("%w: %w", ErrBadHandle, err)
	}
	return wk, st, nil
}

func (ie *IBBEEnclave) sealMSKLocked() ([]byte, error) {
	return ie.enc.Seal(marshalMSK(ie.scheme, ie.msk), []byte("ibbe-msk"))
}

func (ie *IBBEEnclave) sealGKLocked(groupLabel string, gk [kdf.KeySize]byte) ([]byte, error) {
	return ie.enc.Seal(gk[:], []byte("ibbe-gk|"+groupLabel))
}

func (ie *IBBEEnclave) unsealGKLocked(groupLabel string, sealed []byte) ([kdf.KeySize]byte, error) {
	var gk [kdf.KeySize]byte
	raw, err := ie.enc.Unseal(sealed, []byte("ibbe-gk|"+groupLabel))
	if err != nil {
		return gk, err
	}
	if len(raw) != kdf.KeySize {
		return gk, errors.New("enclave: sealed group key has wrong length")
	}
	copy(gk[:], raw)
	return gk, nil
}

// wrapAAD is the associated data every yᵢ of a group binds.
func wrapAAD(groupLabel string) []byte { return []byte("gk|" + groupLabel) }

// UnwrapGK recovers the group key from yᵢ = AES-GCM(SHA-256(bkᵢ), gk) with a
// decrypted partition broadcast key. It runs on the client, outside any
// enclave.
func UnwrapGK(p *pairing.Params, bk *ibbe.BroadcastKey, wrapped []byte, groupLabel string) ([kdf.KeySize]byte, error) {
	return UnwrapGKWithKey(p.GTHash(bk), wrapped, groupLabel)
}

// UnwrapGKWithKey recovers the group key from yᵢ with the wrap key
// SHA-256(bkᵢ) a member kept from an earlier decrypt of the same broadcast
// key. It runs on the client, outside any enclave.
func UnwrapGKWithKey(wk [kdf.KeySize]byte, wrapped []byte, groupLabel string) ([kdf.KeySize]byte, error) {
	var gk [kdf.KeySize]byte
	raw, err := kdf.Open(wk, wrapped, wrapAAD(groupLabel))
	if err != nil {
		return gk, fmt.Errorf("enclave: unwrapping group key: %w", err)
	}
	if len(raw) != kdf.KeySize {
		return gk, errors.New("enclave: wrapped group key has wrong length")
	}
	copy(gk[:], raw)
	return gk, nil
}

// ProvisionedKey is a user secret key in transit: ECIES-wrapped to the user
// and signed by the certified enclave identity key.
type ProvisionedKey struct {
	ID  string
	Box []byte
	Sig []byte
}

// Verify checks the enclave signature with the certified public key.
func (pk *ProvisionedKey) Verify(enclaveKey *ecdsa.PublicKey) error {
	digest := provisionDigest(pk.ID, pk.Box)
	if !ecdsa.VerifyASN1(enclaveKey, digest[:], pk.Sig) {
		return errors.New("enclave: provisioned key signature invalid")
	}
	return nil
}

// Open verifies the signature and unwraps the user key with the user's
// ECDH private key.
func (pk *ProvisionedKey) Open(s *ibbe.Scheme, enclaveKey *ecdsa.PublicKey, userPriv *ecdh.PrivateKey) (*ibbe.UserKey, error) {
	if err := pk.Verify(enclaveKey); err != nil {
		return nil, err
	}
	raw, err := kdf.OpenECIES(userPriv, pk.Box, []byte("usk|"+pk.ID))
	if err != nil {
		return nil, fmt.Errorf("enclave: unwrapping user key: %w", err)
	}
	return s.UnmarshalUserKey(raw)
}

func provisionDigest(id string, box []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("ibbe-provision-v1|"))
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write(box)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// marshalMSK serialises the master secret for sealing: g ∥ γ.
func marshalMSK(s *ibbe.Scheme, msk *ibbe.MasterSecretKey) []byte {
	g1 := s.P.G1
	out := make([]byte, 0, g1.PointLen()+s.P.Zr.ByteLen())
	out = append(out, g1.Marshal(msk.G)...)
	out = append(out, s.P.Zr.ToBytes(msk.Gamma)...)
	return out
}

// unmarshalMSK reverses marshalMSK.
func unmarshalMSK(s *ibbe.Scheme, b []byte) (*ibbe.MasterSecretKey, error) {
	w := s.P.G1.PointLen()
	zw := s.P.Zr.ByteLen()
	if len(b) != w+zw {
		return nil, errors.New("enclave: sealed MSK has wrong length")
	}
	g, err := s.P.G1.Unmarshal(b[:w])
	if err != nil {
		return nil, fmt.Errorf("enclave: MSK generator: %w", err)
	}
	gamma, err := s.P.Zr.FromBytes(b[w:])
	if err != nil {
		return nil, fmt.Errorf("enclave: MSK exponent: %w", err)
	}
	return &ibbe.MasterSecretKey{G: g, Gamma: gamma}, nil
}

// workingSet estimates the enclave-resident bytes for one partition. The
// enclave handles one partition per ECALL, so its working set is bounded by
// a partition regardless of the group size — the §III-B property that lets
// IBBE-SGX stay clear of the EPC limit.
func workingSet(members []string) int64 {
	n := int64(256)
	for _, id := range members {
		n += int64(len(id))
	}
	return n
}
