// Package hybrid implements the paper's baseline: Hybrid Encryption (HE)
// group access control, in both flavours evaluated in the paper.
//
//   - HE-PKI: every user owns a PKI-certified ECDH key pair; the group key gk
//     is encrypted per-member with ECIES (P-256 + HKDF + AES-256-GCM).
//   - HE-IBE: identical structure, but each member's copy of gk is encrypted
//     to the member's identity with Boneh–Franklin IBE, removing the PKI.
//
// Both share the weaknesses the paper quantifies: group metadata linear in
// the group size (Fig. 2b, Fig. 7a) and O(n) re-encryption on every
// revocation (Fig. 2a, Fig. 7a).
package hybrid

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/ibe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// Errors returned by the package.
var (
	// ErrUnknownUser reports an identity with no registered key material.
	ErrUnknownUser = errors.New("hybrid: unknown user")
	// ErrNotMember reports an identity with no entry in the group metadata.
	ErrNotMember = errors.New("hybrid: user is not a group member")
	// ErrDuplicateMember reports adding an identity twice.
	ErrDuplicateMember = errors.New("hybrid: user is already a group member")
)

// Entry is one member's wrapped copy of the group key.
type Entry struct {
	ID  string
	Box []byte
}

// Metadata is the group's cryptographic access-control state: one entry per
// member. Its Size grows linearly with membership — the expansion the paper
// contrasts with IBBE's constant 256 bytes.
type Metadata struct {
	Entries []Entry
}

// Size returns the wire size of the metadata in bytes (sum of boxed keys;
// identities travel in the cleartext member list for every scheme, so they
// are excluded from the comparison exactly as in the paper).
func (m *Metadata) Size() int {
	total := 0
	for _, e := range m.Entries {
		total += len(e.Box)
	}
	return total
}

// Members returns the member identities in metadata order.
func (m *Metadata) Members() []string {
	out := make([]string, len(m.Entries))
	for i, e := range m.Entries {
		out[i] = e.ID
	}
	return out
}

func (m *Metadata) find(id string) int {
	for i, e := range m.Entries {
		if e.ID == id {
			return i
		}
	}
	return -1
}

// PKI is the user key registry backing HE-PKI: it plays the role of the
// certificate authority the paper assumes (and whose operational risks §III-B
// discusses). Safe for concurrent use.
type PKI struct {
	mu   sync.RWMutex
	keys map[string]*ecdh.PrivateKey
}

// NewPKI returns an empty registry.
func NewPKI() *PKI { return &PKI{keys: make(map[string]*ecdh.PrivateKey)} }

// Register creates and stores a P-256 key pair for id. Registering an
// existing identity is a no-op (keys are stable, as with a real CA).
func (p *PKI) Register(id string, rng io.Reader) error {
	if rng == nil {
		rng = rand.Reader
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.keys[id]; ok {
		return nil
	}
	key, err := ecdh.P256().GenerateKey(rng)
	if err != nil {
		return fmt.Errorf("hybrid: generating key for %s: %w", id, err)
	}
	p.keys[id] = key
	return nil
}

// Public returns the certified public key of id.
func (p *PKI) Public(id string) (*ecdh.PublicKey, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	key, ok := p.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, id)
	}
	return key.PublicKey(), nil
}

// Private returns the private key of id (the user-side half; in a real
// deployment this never leaves the user's device).
func (p *PKI) Private(id string) (*ecdh.PrivateKey, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	key, ok := p.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownUser, id)
	}
	return key, nil
}

// HEPKI is the HE-PKI baseline group scheme.
type HEPKI struct {
	PKI *PKI
}

// NewHEPKI returns an HE-PKI scheme over the given registry.
func NewHEPKI(pki *PKI) *HEPKI { return &HEPKI{PKI: pki} }

// CreateGroup draws a fresh group key and wraps it for every member.
// Cost: O(n) public-key encryptions; metadata O(n) bytes.
func (h *HEPKI) CreateGroup(members []string, rng io.Reader) ([kdf.KeySize]byte, *Metadata, error) {
	gk, err := kdf.RandomKey(rng)
	if err != nil {
		return gk, nil, err
	}
	md := &Metadata{Entries: make([]Entry, 0, len(members))}
	for _, id := range members {
		box, err := h.wrap(id, gk, rng)
		if err != nil {
			return gk, nil, err
		}
		md.Entries = append(md.Entries, Entry{ID: id, Box: box})
	}
	return gk, md, nil
}

// AddUser wraps the current group key for one more member. O(1).
func (h *HEPKI) AddUser(md *Metadata, gk [kdf.KeySize]byte, id string, rng io.Reader) error {
	if md.find(id) >= 0 {
		return fmt.Errorf("%w: %s", ErrDuplicateMember, id)
	}
	box, err := h.wrap(id, gk, rng)
	if err != nil {
		return err
	}
	md.Entries = append(md.Entries, Entry{ID: id, Box: box})
	return nil
}

// RemoveUser revokes a member: a fresh group key is drawn and re-wrapped for
// every remaining member. Cost: O(n) — the paper's headline HE weakness.
func (h *HEPKI) RemoveUser(md *Metadata, id string, rng io.Reader) ([kdf.KeySize]byte, error) {
	i := md.find(id)
	if i < 0 {
		return [kdf.KeySize]byte{}, fmt.Errorf("%w: %s", ErrNotMember, id)
	}
	md.Entries = append(md.Entries[:i], md.Entries[i+1:]...)
	gk, err := kdf.RandomKey(rng)
	if err != nil {
		return gk, err
	}
	for j := range md.Entries {
		box, err := h.wrap(md.Entries[j].ID, gk, rng)
		if err != nil {
			return gk, err
		}
		md.Entries[j].Box = box
	}
	return gk, nil
}

// Decrypt recovers the group key as member id.
func (h *HEPKI) Decrypt(md *Metadata, id string) ([kdf.KeySize]byte, error) {
	var gk [kdf.KeySize]byte
	i := md.find(id)
	if i < 0 {
		return gk, fmt.Errorf("%w: %s", ErrNotMember, id)
	}
	priv, err := h.PKI.Private(id)
	if err != nil {
		return gk, err
	}
	pt, err := kdf.OpenECIES(priv, md.Entries[i].Box, []byte(id))
	if err != nil {
		return gk, err
	}
	if len(pt) != kdf.KeySize {
		return gk, errors.New("hybrid: wrapped key has wrong length")
	}
	copy(gk[:], pt)
	return gk, nil
}

// wrap performs one ECIES encryption of gk to id's public key.
func (h *HEPKI) wrap(id string, gk [kdf.KeySize]byte, rng io.Reader) ([]byte, error) {
	pub, err := h.PKI.Public(id)
	if err != nil {
		return nil, err
	}
	return kdf.SealECIES(pub, gk[:], []byte(id), rng)
}

// HEIBE is the HE-IBE baseline: hybrid encryption with identity-based
// per-member wrapping. The scheme object also plays the trusted authority,
// extracting user keys on demand.
type HEIBE struct {
	S  *ibe.Scheme
	MK *ibe.MasterKey
	PP *ibe.PublicParams

	mu   sync.Mutex
	keys map[string]*ibe.UserKey
}

// NewHEIBE sets up a fresh IBE authority over the given pairing parameters.
func NewHEIBE(p *pairing.Params, rng io.Reader) (*HEIBE, error) {
	s := ibe.NewScheme(p)
	mk, pp, err := s.Setup(rng)
	if err != nil {
		return nil, err
	}
	return &HEIBE{S: s, MK: mk, PP: pp, keys: make(map[string]*ibe.UserKey)}, nil
}

// UserKey extracts (and caches) the IBE private key for id.
func (h *HEIBE) UserKey(id string) (*ibe.UserKey, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if k, ok := h.keys[id]; ok {
		return k, nil
	}
	k, err := h.S.Extract(h.MK, id)
	if err != nil {
		return nil, err
	}
	h.keys[id] = k
	return k, nil
}

// CreateGroup draws a fresh group key and IBE-wraps it for every member.
func (h *HEIBE) CreateGroup(members []string, rng io.Reader) ([kdf.KeySize]byte, *Metadata, error) {
	gk, err := kdf.RandomKey(rng)
	if err != nil {
		return gk, nil, err
	}
	md := &Metadata{Entries: make([]Entry, 0, len(members))}
	for _, id := range members {
		box, err := h.S.Encrypt(h.PP, id, gk[:], rng)
		if err != nil {
			return gk, nil, err
		}
		md.Entries = append(md.Entries, Entry{ID: id, Box: box})
	}
	return gk, md, nil
}

// AddUser wraps the current group key for one more member. O(1).
func (h *HEIBE) AddUser(md *Metadata, gk [kdf.KeySize]byte, id string, rng io.Reader) error {
	if md.find(id) >= 0 {
		return fmt.Errorf("%w: %s", ErrDuplicateMember, id)
	}
	box, err := h.S.Encrypt(h.PP, id, gk[:], rng)
	if err != nil {
		return err
	}
	md.Entries = append(md.Entries, Entry{ID: id, Box: box})
	return nil
}

// RemoveUser revokes a member with a full O(n) re-wrap under a fresh key.
func (h *HEIBE) RemoveUser(md *Metadata, id string, rng io.Reader) ([kdf.KeySize]byte, error) {
	i := md.find(id)
	if i < 0 {
		return [kdf.KeySize]byte{}, fmt.Errorf("%w: %s", ErrNotMember, id)
	}
	md.Entries = append(md.Entries[:i], md.Entries[i+1:]...)
	gk, err := kdf.RandomKey(rng)
	if err != nil {
		return gk, err
	}
	for j := range md.Entries {
		box, err := h.S.Encrypt(h.PP, md.Entries[j].ID, gk[:], rng)
		if err != nil {
			return gk, err
		}
		md.Entries[j].Box = box
	}
	return gk, nil
}

// Decrypt recovers the group key as member id.
func (h *HEIBE) Decrypt(md *Metadata, id string) ([kdf.KeySize]byte, error) {
	var gk [kdf.KeySize]byte
	i := md.find(id)
	if i < 0 {
		return gk, fmt.Errorf("%w: %s", ErrNotMember, id)
	}
	uk, err := h.UserKey(id)
	if err != nil {
		return gk, err
	}
	pt, err := h.S.Decrypt(uk, id, md.Entries[i].Box)
	if err != nil {
		return gk, err
	}
	if len(pt) != kdf.KeySize {
		return gk, errors.New("hybrid: wrapped key has wrong length")
	}
	copy(gk[:], pt)
	return gk, nil
}
