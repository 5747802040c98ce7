package core

import (
	"errors"
	"fmt"

	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
)

// ErrNotInPartition reports a decryption attempt against a partition record
// that does not list the client.
var ErrNotInPartition = errors.New("core: client is not a member of this partition")

// Client is the user-side decryption engine: given a partition record with
// its wrapped group key yᵢ (which a reader takes from the group header), it
// runs the IBBE decrypt (O(|p|²), outside any enclave — users need no SGX)
// and unwraps the group key (§V-A's client decrypt operation).
type Client struct {
	scheme *ibbe.Scheme
	pk     *ibbe.PublicKey
	id     string
	key    *ibbe.UserKey
}

// NewClient builds a client for identity id holding the provisioned user
// secret key.
func NewClient(scheme *ibbe.Scheme, pk *ibbe.PublicKey, id string, key *ibbe.UserKey) (*Client, error) {
	if scheme == nil || pk == nil || key == nil {
		return nil, errors.New("core: nil client material")
	}
	return &Client{scheme: scheme, pk: pk, id: id, key: key}, nil
}

// ID returns the client identity.
func (c *Client) ID() string { return c.id }

// Scheme returns the IBBE scheme the client decrypts under.
func (c *Client) Scheme() *ibbe.Scheme { return c.scheme }

// DecryptRecord recovers the group key from the client's partition record:
// IBBE-decrypt the partition broadcast key bk, hash it, and open yᵢ.
func (c *Client) DecryptRecord(group string, rec *PartitionRecord) ([kdf.KeySize]byte, error) {
	gk, _, err := c.DecryptRecordKeys(group, rec)
	return gk, err
}

// DecryptRecordKeys is DecryptRecord that also returns the wrap key
// wk = SHA(bk). The partition keeps bk until it loses a member, so a member
// holding wk opens every yᵢ published for it until then with Unwrap instead
// of another IBBE decrypt. A yᵢ that bk does not open fails with
// kdf.ErrDecrypt.
func (c *Client) DecryptRecordKeys(group string, rec *PartitionRecord) (gk, wk [kdf.KeySize]byte, err error) {
	if !rec.ContainsMember(c.id) {
		return gk, wk, fmt.Errorf("%w: %s in partition %s", ErrNotInPartition, c.id, rec.PartitionID)
	}
	bk, err := c.scheme.Decrypt(c.pk, c.id, c.key, rec.Members, rec.CT)
	if err != nil {
		return gk, wk, fmt.Errorf("core: broadcast decrypt: %w", err)
	}
	wk = c.scheme.P.GTHash(bk)
	gk, err = enclave.UnwrapGKWithKey(wk, rec.WrappedGK, group)
	return gk, wk, err
}

// Unwrap recovers the group key from a partition's yᵢ with a wrap key kept
// from DecryptRecordKeys. It fails (authenticated open) when the partition's
// broadcast key has rotated since, e.g. because the holder was revoked.
func (c *Client) Unwrap(group string, wrapped []byte, wk [kdf.KeySize]byte) ([kdf.KeySize]byte, error) {
	return enclave.UnwrapGKWithKey(wk, wrapped, group)
}

// FindOwnRecord scans partition records for the one listing the client.
func (c *Client) FindOwnRecord(records map[string]*PartitionRecord) (*PartitionRecord, bool) {
	for _, rec := range records {
		if rec.ContainsMember(c.id) {
			return rec, true
		}
	}
	return nil, false
}
