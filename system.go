package ibbesgx

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/attest"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/pki"
)

// Options configures NewSystem.
type Options struct {
	// Params selects the pairing parameter scale:
	// "fast-160" (default; quick, no security margin — development and CI),
	// "medium-256", or "paper-512" (the artifact-faithful scale whose group
	// elements serialise to the paper's 128 bytes).
	Params string
	// PartitionCapacity is the fixed partition size |p| (§IV-C). The paper
	// uses 1000–4000 at million-user scale; default 1000.
	PartitionCapacity int
	// PlatformID names the simulated SGX platform.
	PlatformID string
	// Seed drives partition-picking randomness (not cryptographic
	// randomness); fixed seeds give reproducible partition layouts.
	Seed int64
}

// System is a fully-wired IBBE-SGX deployment: the simulated SGX platform,
// the enclave holding the master secret, the attestation ecosystem (IAS +
// auditor/CA) and the certified enclave identity. It is the trust anchor
// from which admins are spawned and user credentials provisioned.
type System struct {
	platform *enclave.Platform
	encl     *enclave.IBBEEnclave
	ias      *attest.IAS
	auditor  *pki.Auditor
	cert     *x509.Certificate
	log      *core.OpLog
	capacity int
	seed     int64
}

// NewSystem performs the paper's full bootstrap: create the platform,
// launch the enclave, run system setup inside it (Fig. 6a), attest the
// enclave through the simulated IAS, and have the auditor/CA certify the
// enclave identity key (Fig. 3).
func NewSystem(opts Options) (*System, error) {
	params, err := pairing.ByScale(opts.Params)
	if err != nil {
		return nil, fmt.Errorf("ibbesgx: %w", err)
	}
	capacity := opts.PartitionCapacity
	if capacity == 0 {
		capacity = 1000
	}
	if capacity < 1 {
		return nil, fmt.Errorf("ibbesgx: partition capacity must be positive, got %d", capacity)
	}
	platformID := opts.PlatformID
	if platformID == "" {
		platformID = "sgx-platform-0"
	}

	platform, err := enclave.NewPlatform(platformID, rand.Reader)
	if err != nil {
		return nil, err
	}
	ias, err := attest.NewIAS()
	if err != nil {
		return nil, err
	}
	ias.RegisterPlatform(platform)

	encl, err := enclave.NewIBBEEnclave(platform, params)
	if err != nil {
		return nil, err
	}
	if _, _, err := encl.EcallSetup(capacity); err != nil {
		return nil, err
	}

	auditor, err := pki.NewAuditor(ias.PublicKey(), enclave.IBBEMeasurement())
	if err != nil {
		return nil, err
	}
	cert, err := auditor.AttestAndCertify(ias, encl)
	if err != nil {
		return nil, fmt.Errorf("ibbesgx: enclave attestation failed: %w", err)
	}

	log, err := core.NewOpLog()
	if err != nil {
		return nil, err
	}
	return &System{
		platform: platform,
		encl:     encl,
		ias:      ias,
		auditor:  auditor,
		cert:     cert,
		log:      log,
		capacity: capacity,
		seed:     opts.Seed,
	}, nil
}

// NewAdmin returns an administrator frontend publishing to the given store.
// Every admin has its own group state over the system's enclave, as each
// cluster shard does, and all admins share the certified operation log. An
// admin serialises the operations on the groups it holds; to operate on a
// group another admin created, call RestoreGroup on it first.
func (s *System) NewAdmin(name string, store Store) (*Admin, error) {
	if store == nil {
		return nil, errors.New("ibbesgx: nil store")
	}
	mgr, err := core.NewManager(s.encl, s.capacity, s.seed)
	if err != nil {
		return nil, err
	}
	return admin.New(name, mgr, store, s.log), nil
}

// UserCredentials is the outcome of provisioning: the user's identity and
// IBBE secret key, accepted only after the enclave certificate chain
// verified (Fig. 3 step 4).
type UserCredentials struct {
	ID  string
	key *ibbe.UserKey
	sys *System
}

// ProvisionUser runs the user-side trust establishment end to end: verify
// the enclave certificate against the auditor root and the expected
// measurement, generate an ephemeral ECDH key, request the user's IBBE
// secret key from the enclave, verify the enclave's signature, and unwrap.
func (s *System) ProvisionUser(id string) (*UserCredentials, error) {
	enclaveKey, err := pki.VerifyEnclaveCert(s.cert, s.auditor.RootCertificate(), enclave.IBBEMeasurement())
	if err != nil {
		return nil, fmt.Errorf("ibbesgx: enclave certificate rejected: %w", err)
	}
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	prov, err := s.encl.EcallExtractUserKey(id, priv.PublicKey())
	if err != nil {
		return nil, err
	}
	key, err := prov.Open(s.encl.Scheme(), enclaveKey, priv)
	if err != nil {
		return nil, fmt.Errorf("ibbesgx: provisioned key rejected: %w", err)
	}
	return &UserCredentials{ID: id, key: key, sys: s}, nil
}

// NewClient builds a client for a group from provisioned credentials.
func (s *System) NewClient(creds *UserCredentials, store Store, group string) (*Client, error) {
	if creds == nil || creds.sys != s {
		return nil, errors.New("ibbesgx: credentials were not provisioned by this system")
	}
	return client.New(s.encl.Scheme(), s.encl.PublicKey(), creds.ID, creds.key, store, group)
}

// Log returns the certified membership-operation log.
func (s *System) Log() *OpLog { return s.log }

// PartitionCapacity returns the fixed partition size.
func (s *System) PartitionCapacity() int { return s.capacity }

// EnclaveCertificate returns the auditor-issued enclave identity
// certificate (what users pin alongside the auditor root).
func (s *System) EnclaveCertificate() *x509.Certificate { return s.cert }

// AuditorRoot returns the auditor/CA root certificate.
func (s *System) AuditorRoot() *x509.Certificate { return s.auditor.RootCertificate() }

// EPCStats reports the simulated Enclave Page Cache statistics.
func (s *System) EPCStats() enclave.EPCStats { return s.platform.EPC() }
