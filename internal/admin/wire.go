package admin

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/pki"
)

// The client half of the admin server's wire contract: the bodies the
// /info, /provision and /admin/* routes take and answer, and the user-side
// provisioning handshake. A cluster shard (internal/cluster) serves them.

// SystemInfo describes the deployment to clients.
type SystemInfo struct {
	Params         string `json:"params"`
	PublicKey      string `json:"public_key"`
	EnclaveCertDER string `json:"enclave_cert_der"`
	RootCertDER    string `json:"root_cert_der"`
	Capacity       int    `json:"partition_capacity"`
}

// ProvisionRequest is a user's key request.
type ProvisionRequest struct {
	ID      string `json:"id"`
	ECDHPub string `json:"ecdh_pub"` // base64 uncompressed P-256 point
}

// ProvisionResponse carries the wrapped user key plus everything needed to
// verify and use it.
type ProvisionResponse struct {
	ID             string `json:"id"`
	Box            string `json:"box"`
	Sig            string `json:"sig"`
	Params         string `json:"params"`
	PublicKey      string `json:"public_key"`
	EnclaveCertDER string `json:"enclave_cert_der"`
	RootCertDER    string `json:"root_cert_der"`
}

// OpRequest is the body of every admin mutation (POST /admin/<op>): the
// group, plus the initial members of a creation or the users an add or a
// removal names (one user is a batch of one).
type OpRequest struct {
	Group   string   `json:"group"`
	Members []string `json:"members,omitempty"`
	Users   []string `json:"users,omitempty"`
}

// MembersResult is one page of a group's member listing. Next carries the
// cursor for the following page; empty means the listing is complete.
type MembersResult struct {
	Group   string   `json:"group"`
	Members []string `json:"members"`
	Next    string   `json:"next,omitempty"`
}

// ProvisionOverHTTP is the user-side counterpart to the /provision
// endpoint: it generates an ephemeral ECDH key, requests the wrapped user
// key, verifies the enclave certificate chain against pinnedRoot (or the
// served root when pinnedRoot is nil — trust-on-first-use, acceptable only
// for demos) and the enclave signature, and returns the usable key
// material.
func ProvisionOverHTTP(httpc *http.Client, baseURL, id string, pinnedRoot *x509.Certificate) (*ibbe.Scheme, *ibbe.PublicKey, *ibbe.UserKey, error) {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, nil, err
	}
	reqBody, err := json.Marshal(ProvisionRequest{
		ID:      id,
		ECDHPub: base64.StdEncoding.EncodeToString(priv.PublicKey().Bytes()),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	resp, err := httpc.Post(strings.TrimRight(baseURL, "/")+"/provision", "application/json", strings.NewReader(string(reqBody)))
	if err != nil {
		return nil, nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nil, nil, fmt.Errorf("admin: provisioning failed: %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var pr ProvisionResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, nil, nil, err
	}

	params := pairing.ByName(pr.Params)
	if params == nil {
		return nil, nil, nil, fmt.Errorf("admin: unknown parameter set %q", pr.Params)
	}
	scheme := ibbe.NewScheme(params)

	certDER, err := base64.StdEncoding.DecodeString(pr.EnclaveCertDER)
	if err != nil {
		return nil, nil, nil, err
	}
	cert, err := x509.ParseCertificate(certDER)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("admin: parsing enclave certificate: %w", err)
	}
	root := pinnedRoot
	if root == nil {
		rootDER, err := base64.StdEncoding.DecodeString(pr.RootCertDER)
		if err != nil {
			return nil, nil, nil, err
		}
		if root, err = x509.ParseCertificate(rootDER); err != nil {
			return nil, nil, nil, fmt.Errorf("admin: parsing root certificate: %w", err)
		}
	}
	enclaveKey, err := pki.VerifyEnclaveCert(cert, root, enclave.IBBEMeasurement())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("admin: enclave certificate rejected: %w", err)
	}

	box, err := base64.StdEncoding.DecodeString(pr.Box)
	if err != nil {
		return nil, nil, nil, err
	}
	sig, err := base64.StdEncoding.DecodeString(pr.Sig)
	if err != nil {
		return nil, nil, nil, err
	}
	prov := &enclave.ProvisionedKey{ID: pr.ID, Box: box, Sig: sig}
	userKey, err := prov.Open(scheme, enclaveKey, priv)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("admin: provisioned key rejected: %w", err)
	}

	pkRaw, err := base64.StdEncoding.DecodeString(pr.PublicKey)
	if err != nil {
		return nil, nil, nil, err
	}
	pk, err := scheme.UnmarshalPublicKey(pkRaw)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("admin: parsing system public key: %w", err)
	}
	return scheme, pk, userKey, nil
}
