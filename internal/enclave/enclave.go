// Package enclave simulates the Intel SGX primitives the IBBE-SGX system
// depends on: measured enclave launch, the ECALL trust boundary, sealed
// storage bound to the platform and enclave measurement, and an EPC
// (Enclave Page Cache) accounting model.
//
// What is faithfully modelled (README's introduction and Architecture
// section):
//
//   - The master secret key exists in plaintext only inside an Enclave value
//     and is reachable exclusively through the ECALL methods; no API returns
//     it. The "curious administrator" of the paper's threat model interacts
//     with exactly this surface.
//   - Sealing uses AES-256-GCM under a key derived from a per-platform root
//     secret and the enclave measurement (MRENCLAVE policy), like
//     sgx_seal_data.
//   - Launch produces a measurement over the enclave code identity, and the
//     attest package can later quote it.
//   - The EPC model tracks resident enclave memory against the 128 MB limit
//     of SGXv1 and counts paging events, so experiments can observe the
//     memory pressure argument of §III-B (hybrid metadata blowing the EPC).
//
// What is not modelled: actual memory encryption and side-channel behaviour,
// which the paper also leaves out of scope.
package enclave

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/kdf"
)

// Errors returned by the package.
var (
	// ErrSealedDataCorrupt reports a sealed blob failing authentication.
	ErrSealedDataCorrupt = errors.New("enclave: sealed data corrupt or from a different enclave/platform")
	// ErrEnclaveNotInitialized reports an ECALL before the required state exists.
	ErrEnclaveNotInitialized = errors.New("enclave: not initialized")
	// ErrEPCExhausted reports an allocation beyond the configured EPC limit.
	ErrEPCExhausted = errors.New("enclave: EPC exhausted")
)

// DefaultEPCBytes is the SGXv1 Enclave Page Cache size (128 MB), of which
// ~93 MB is usable; the simulation uses the full 128 MB as the paper does
// when reasoning about limits.
const DefaultEPCBytes = 128 << 20

// Measurement is MRENCLAVE: a SHA-256 digest of the enclave code identity.
type Measurement [32]byte

// MeasureCode computes the measurement for a code identity descriptor.
// Real SGX hashes the loaded pages; the simulation hashes the descriptor
// (name plus version), which preserves the property that attestation
// distinguishes different enclave binaries.
func MeasureCode(name, version string) Measurement {
	return sha256.Sum256([]byte("enclave-code|" + name + "|" + version))
}

// Platform simulates one SGX-capable machine: it owns the fused root secret
// that sealing keys derive from and the attestation key that quotes are
// signed with. Safe for concurrent use.
type Platform struct {
	id         string
	rootSecret [32]byte
	attestKey  *ecdsa.PrivateKey

	mu  sync.Mutex
	epc *EPCStats
}

// NewPlatform creates a platform with a random root secret and attestation
// key, as if fused at manufacturing.
func NewPlatform(id string, rng io.Reader) (*Platform, error) {
	if rng == nil {
		rng = rand.Reader
	}
	p := &Platform{id: id, epc: &EPCStats{Limit: DefaultEPCBytes}}
	if _, err := io.ReadFull(rng, p.rootSecret[:]); err != nil {
		return nil, fmt.Errorf("enclave: drawing root secret: %w", err)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rng)
	if err != nil {
		return nil, fmt.Errorf("enclave: generating attestation key: %w", err)
	}
	p.attestKey = key
	return p, nil
}

// ID returns the platform identifier.
func (p *Platform) ID() string { return p.id }

// AttestationPublicKey returns the public half of the platform's quoting
// key. The attest package's simulated IAS registers it as "genuine".
func (p *Platform) AttestationPublicKey() *ecdsa.PublicKey {
	return &p.attestKey.PublicKey
}

// SignQuote signs quote contents with the platform quoting key. Only the
// attest package calls this (through Platform.Quote there).
func (p *Platform) SignQuote(digest []byte) ([]byte, error) {
	return ecdsa.SignASN1(rand.Reader, p.attestKey, digest)
}

// EPC returns a snapshot of the platform's EPC statistics.
func (p *Platform) EPC() EPCStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return *p.epc
}

// Launch creates an enclave instance on this platform with the given code
// measurement. It mirrors ECREATE/EINIT: the returned Enclave is the only
// handle to the trusted execution context.
func (p *Platform) Launch(m Measurement) *Enclave {
	return &Enclave{platform: p, measurement: m}
}

// Enclave is a launched trusted execution context. Code "inside" the
// enclave is represented by methods on wrapping types (e.g. IBBEEnclave)
// that hold their secret state in unexported fields, making the ECALL
// surface the only access path — the same containment SGX provides.
type Enclave struct {
	platform    *Platform
	measurement Measurement

	sealOnce sync.Once
	seal     *kdf.Sealer
	sealErr  error
}

// Measurement returns MRENCLAVE for this enclave.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Platform returns the hosting platform.
func (e *Enclave) Platform() *Platform { return e.platform }

// sealer returns the MRENCLAVE-policy sealing AEAD — only the same enclave
// code on the same platform can unseal. The key derivation and the cipher
// build run once per Enclave; the AEAD is safe for concurrent use.
func (e *Enclave) sealer() (*kdf.Sealer, error) {
	e.sealOnce.Do(func() {
		e.seal, e.sealErr = kdf.NewSealer(kdf.DeriveKey(e.platform.rootSecret[:], e.measurement[:], []byte("sgx-seal-mrenclave-v1")))
	})
	return e.seal, e.sealErr
}

// Seal protects data for persistence outside the enclave, binding the given
// label (similar to sgx_seal_data's additional authenticated data).
func (e *Enclave) Seal(data, label []byte) ([]byte, error) {
	s, err := e.sealer()
	if err != nil {
		return nil, err
	}
	return s.Seal(data, label, rand.Reader)
}

// Unseal reverses Seal; it fails if the blob was sealed by different enclave
// code or on a different platform.
func (e *Enclave) Unseal(blob, label []byte) ([]byte, error) {
	s, err := e.sealer()
	if err != nil {
		return nil, err
	}
	out, err := s.Open(blob, label)
	if err != nil {
		return nil, ErrSealedDataCorrupt
	}
	return out, nil
}

// EPCStats models Enclave Page Cache pressure. Writes inside the enclave
// call EPCTouch, which tracks the resident set and counts paging events
// once the limit is exceeded — the effect §III-B fears for HE-style
// metadata expansion inside enclaves.
type EPCStats struct {
	// Limit is the EPC capacity in bytes.
	Limit int64
	// Resident is the current simulated resident enclave memory.
	Resident int64
	// PeakResident is the high-water mark.
	PeakResident int64
	// PagedBytes counts bytes (re-)loaded past the limit — each of which
	// would incur EWB/ELDU encryption costs on real hardware.
	PagedBytes int64
	// PageFaults counts paging events.
	PageFaults int64
}

// EPCTouch records that the enclave holds n additional bytes while running
// an ECALL and releases them at the end (working-set model). The wrapping
// types whose methods are the ECALLs (IBBEEnclave, and the HE baseline the
// benchmarks run inside an enclave) charge their working sets through it.
func (e *Enclave) EPCTouch(n int64, run func()) {
	p := e.platform
	p.mu.Lock()
	p.epc.Resident += n
	if p.epc.Resident > p.epc.PeakResident {
		p.epc.PeakResident = p.epc.Resident
	}
	if p.epc.Resident > p.epc.Limit {
		p.epc.PageFaults++
		p.epc.PagedBytes += p.epc.Resident - p.epc.Limit
	}
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		p.epc.Resident -= n
		p.mu.Unlock()
	}()
	run()
}
