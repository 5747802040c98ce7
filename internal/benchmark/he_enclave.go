package benchmark

import (
	"crypto/rand"
	"fmt"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/hybrid"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
)

// HEEnclave runs the Hybrid Encryption baseline *inside* the enclave — the
// integration §III-B contemplates ("administrators could be asked to run HE
// within an SGX enclave, thus protecting the discovery of gk") and then
// argues against: because HE's group metadata grows linearly with
// membership, the enclave working set grows with the group and collides
// with the EPC, whereas IBBE-SGX's working set is constant per partition.
//
// This type exists to measure exactly that effect (see RunEPCExperiment): it
// gives HE the same zero-knowledge guarantee as
// IBBE-SGX, with group keys and metadata processed only inside the
// boundary, and charges the full metadata working set to the EPC model.
type HEEnclave struct {
	enc *enclave.Enclave
	he  *hybrid.HEPKI

	mu sync.Mutex
	// groups holds the plaintext group keys — inside the enclave only.
	groups map[string][kdf.KeySize]byte
	md     map[string]*hybrid.Metadata
}

// HECodeName and HECodeVersion identify the HE enclave binary.
const (
	HECodeName    = "he-sgx-enclave"
	HECodeVersion = "1.0.0"
)

// HEMeasurement returns the expected measurement of the HE enclave code.
func HEMeasurement() enclave.Measurement { return enclave.MeasureCode(HECodeName, HECodeVersion) }

// NewHEEnclave launches the HE baseline inside an enclave on the platform,
// wrapping the given PKI registry.
func NewHEEnclave(p *enclave.Platform, pki *hybrid.PKI) *HEEnclave {
	return &HEEnclave{
		enc:    p.Launch(HEMeasurement()),
		he:     hybrid.NewHEPKI(pki),
		groups: make(map[string][kdf.KeySize]byte),
		md:     make(map[string]*hybrid.Metadata),
	}
}

// Enclave exposes the launched enclave (for attestation and EPC stats).
func (h *HEEnclave) Enclave() *enclave.Enclave { return h.enc }

// EcallCreateGroup draws gk inside the enclave and wraps it per member.
// The entire linear metadata is enclave-resident during the call — the EPC
// pressure §III-B worries about.
func (h *HEEnclave) EcallCreateGroup(group string, members []string) (*hybrid.Metadata, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var (
		md  *hybrid.Metadata
		err error
	)
	h.enc.EPCTouch(heWorkingSet(len(members)), func() {
		var gk [kdf.KeySize]byte
		gk, md, err = h.he.CreateGroup(members, rand.Reader)
		if err == nil {
			h.groups[group] = gk
		}
	})
	if err != nil {
		return nil, err
	}
	h.md[group] = md
	return md, nil
}

// EcallAddUser wraps the resident group key for one more member.
func (h *HEEnclave) EcallAddUser(group, user string) (*hybrid.Metadata, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	gk, ok := h.groups[group]
	if !ok {
		return nil, fmt.Errorf("benchmark: no HE group %s", group)
	}
	md := h.md[group]
	var err error
	h.enc.EPCTouch(heWorkingSet(len(md.Entries)+1), func() {
		err = h.he.AddUser(md, gk, user, rand.Reader)
	})
	if err != nil {
		return nil, err
	}
	return md, nil
}

// EcallRemoveUser revokes a member: a fresh gk is drawn inside and
// re-wrapped for every remaining member — O(n) work over an O(n)-sized
// enclave-resident metadata.
func (h *HEEnclave) EcallRemoveUser(group, user string) (*hybrid.Metadata, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	md, ok := h.md[group]
	if !ok {
		return nil, fmt.Errorf("benchmark: no HE group %s", group)
	}
	var (
		gk  [kdf.KeySize]byte
		err error
	)
	h.enc.EPCTouch(heWorkingSet(len(md.Entries)), func() {
		gk, err = h.he.RemoveUser(md, user, rand.Reader)
	})
	if err != nil {
		return nil, err
	}
	h.groups[group] = gk
	return md, nil
}

// Metadata returns the current group metadata (public material).
func (h *HEEnclave) Metadata(group string) (*hybrid.Metadata, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	md, ok := h.md[group]
	return md, ok
}

// heWorkingSet estimates the enclave-resident bytes for an HE membership
// operation: the full per-member metadata (ECIES box ≈ 65+32+28 bytes plus
// identity bookkeeping).
func heWorkingSet(members int) int64 {
	const perEntry = 65 + kdf.KeySize + kdf.Overhead + 64
	return int64(members) * perEntry
}
