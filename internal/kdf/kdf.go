// Package kdf provides the symmetric-crypto glue the system needs: an
// HKDF-SHA256 implementation (the standard library has none), AES-256-GCM
// sealing helpers with a uniform wire format, and ECIES over P-256 on top of
// them.
//
// The paper's construction wraps the group key gk under partition broadcast
// keys with AES-256 (using Intel's SGX-SSL port); here the same wrapping is
// done with the stdlib cipher suite.
package kdf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// Errors returned by the package.
var (
	// ErrDecrypt reports an authentication failure while opening a sealed box.
	ErrDecrypt = errors.New("kdf: message authentication failed")
	// ErrShortCiphertext reports a ciphertext shorter than nonce+tag.
	ErrShortCiphertext = errors.New("kdf: ciphertext too short")
)

// KeySize is the symmetric key size in bytes (AES-256, the paper's "maximal
// security level").
const KeySize = 32

// NonceSize is the GCM nonce size in bytes.
const NonceSize = 12

// Overhead is the sealing expansion: nonce plus GCM tag. A sealed 32-byte
// group key occupies 32 + Overhead bytes, the yᵢ term of the paper's
// per-partition metadata.
const Overhead = NonceSize + 16

// Extract implements HKDF-Extract(salt, ikm) with HMAC-SHA256.
func Extract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// Expand implements HKDF-Expand(prk, info, length) with HMAC-SHA256.
// Length must not exceed 255 hash blocks (8160 bytes).
func Expand(prk, info []byte, length int) ([]byte, error) {
	if length <= 0 || length > 255*sha256.Size {
		return nil, fmt.Errorf("kdf: invalid expand length %d", length)
	}
	var (
		out  = make([]byte, 0, length)
		prev []byte
		ctr  byte
	)
	for len(out) < length {
		ctr++
		mac := hmac.New(sha256.New, prk)
		mac.Write(prev)
		mac.Write(info)
		mac.Write([]byte{ctr})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length], nil
}

// Derive is the common HKDF(salt, ikm, info) → length composition.
func Derive(ikm, salt, info []byte, length int) ([]byte, error) {
	return Expand(Extract(salt, ikm), info, length)
}

// DeriveKey derives a KeySize-byte key; it never fails for valid inputs.
func DeriveKey(ikm, salt, info []byte) [KeySize]byte {
	var out [KeySize]byte
	k, err := Derive(ikm, salt, info, KeySize)
	if err != nil {
		// Unreachable: KeySize is a valid expand length.
		panic("kdf: internal derive failure: " + err.Error())
	}
	copy(out[:], k)
	return out
}

// Sealer is Seal and Open under one key with the cipher built once — for a
// caller that opens or seals many boxes under the same key.
type Sealer struct{ aead cipher.AEAD }

// NewSealer builds the AES-256-GCM instance for key.
func NewSealer(key [KeySize]byte) (*Sealer, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("kdf: cipher init: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("kdf: GCM init: %w", err)
	}
	return &Sealer{aead}, nil
}

// Seal encrypts and authenticates plaintext, binding the optional associated
// data. Output layout: nonce ∥ ciphertext.
func (s *Sealer) Seal(plaintext, aad []byte, rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	nonce := make([]byte, NonceSize, NonceSize+len(plaintext)+s.aead.Overhead())
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("kdf: drawing nonce: %w", err)
	}
	return s.aead.Seal(nonce, nonce, plaintext, aad), nil
}

// SealNonce appends Seal's output layout, nonce ∥ ciphertext, to dst under
// a nonce the caller drew: for a caller that draws the nonces of many boxes
// in one read. nonce must be NonceSize random bytes, never reused under the
// key.
func (s *Sealer) SealNonce(dst, nonce, plaintext, aad []byte) []byte {
	return s.aead.Seal(append(dst, nonce...), nonce, plaintext, aad)
}

// Open reverses Seal, verifying the tag and associated data.
func (s *Sealer) Open(box, aad []byte) ([]byte, error) {
	if len(box) < Overhead {
		return nil, ErrShortCiphertext
	}
	pt, err := s.aead.Open(nil, box[:NonceSize], box[NonceSize:], aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// Seal encrypts and authenticates plaintext under key with AES-256-GCM,
// binding the optional associated data. Output layout: nonce ∥ ciphertext.
func Seal(key [KeySize]byte, plaintext, aad []byte, rng io.Reader) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.Seal(plaintext, aad, rng)
}

// Open reverses Seal, verifying the tag and associated data.
func Open(key [KeySize]byte, box, aad []byte) ([]byte, error) {
	s, err := NewSealer(key)
	if err != nil {
		return nil, err
	}
	return s.Open(box, aad)
}

// RandomKey draws a fresh symmetric key (the group key gk of the paper).
func RandomKey(rng io.Reader) ([KeySize]byte, error) {
	var k [KeySize]byte
	if rng == nil {
		rng = rand.Reader
	}
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return k, fmt.Errorf("kdf: drawing key: %w", err)
	}
	return k, nil
}

// SealECIES encrypts msg to pub with ephemeral ECDH P-256 + HKDF + AES-256-GCM.
// Wire: ephemeralPub ∥ box. It is shared by the HE-PKI baseline (package
// hybrid) and the enclave user-key provisioning channel.
func SealECIES(pub *ecdh.PublicKey, msg, aad []byte, rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	eph, err := ecdh.P256().GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("kdf: ephemeral key: %w", err)
	}
	shared, err := eph.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("kdf: ECDH: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	key := DeriveKey(shared, ephPub, []byte("he-pki-ecies-v1"))
	box, err := Seal(key, msg, aad, rng)
	if err != nil {
		return nil, err
	}
	return append(ephPub, box...), nil
}

// OpenECIES reverses SealECIES with the recipient private key.
func OpenECIES(priv *ecdh.PrivateKey, ct, aad []byte) ([]byte, error) {
	pubLen := len(priv.PublicKey().Bytes())
	if len(ct) < pubLen+Overhead {
		return nil, errors.New("kdf: ECIES ciphertext too short")
	}
	ephPub, err := ecdh.P256().NewPublicKey(ct[:pubLen])
	if err != nil {
		return nil, fmt.Errorf("kdf: parsing ephemeral key: %w", err)
	}
	shared, err := priv.ECDH(ephPub)
	if err != nil {
		return nil, fmt.Errorf("kdf: ECDH: %w", err)
	}
	key := DeriveKey(shared, ct[:pubLen], []byte("he-pki-ecies-v1"))
	return Open(key, ct[pubLen:], aad)
}
