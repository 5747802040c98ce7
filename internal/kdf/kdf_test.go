package kdf

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
)

// RFC 5869 test case 1 (SHA-256).
func TestHKDFRFC5869Vector1(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt, _ := hex.DecodeString("000102030405060708090a0b0c")
	info, _ := hex.DecodeString("f0f1f2f3f4f5f6f7f8f9")
	wantPRK, _ := hex.DecodeString("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	wantOKM, _ := hex.DecodeString("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")

	prk := Extract(salt, ikm)
	if !bytes.Equal(prk, wantPRK) {
		t.Fatalf("PRK = %x, want %x", prk, wantPRK)
	}
	okm, err := Expand(prk, info, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x, want %x", okm, wantOKM)
	}
}

// RFC 5869 test case 3 (zero-length salt and info).
func TestHKDFRFC5869Vector3(t *testing.T) {
	ikm, _ := hex.DecodeString("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	wantOKM, _ := hex.DecodeString("8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
	okm, err := Derive(ikm, nil, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(okm, wantOKM) {
		t.Fatalf("OKM = %x, want %x", okm, wantOKM)
	}
}

func TestExpandLengthLimits(t *testing.T) {
	prk := Extract(nil, []byte("x"))
	if _, err := Expand(prk, nil, 0); err == nil {
		t.Fatal("Expand accepted zero length")
	}
	if _, err := Expand(prk, nil, 255*sha256.Size+1); err == nil {
		t.Fatal("Expand accepted over-long output")
	}
	out, err := Expand(prk, nil, 255*sha256.Size)
	if err != nil || len(out) != 255*sha256.Size {
		t.Fatalf("max-length expand failed: %v", err)
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	k1 := DeriveKey([]byte("secret"), []byte("salt"), []byte("info"))
	k2 := DeriveKey([]byte("secret"), []byte("salt"), []byte("info"))
	if k1 != k2 {
		t.Fatal("DeriveKey not deterministic")
	}
	k3 := DeriveKey([]byte("secret"), []byte("salt"), []byte("other"))
	if k1 == k3 {
		t.Fatal("info does not separate derived keys")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	key, err := RandomKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the group key payload")
	aad := []byte("group-42/partition-3")
	box, err := Seal(key, msg, aad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != len(msg)+Overhead {
		t.Fatalf("sealed size %d, want %d", len(box), len(msg)+Overhead)
	}
	out, err := Open(key, box, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, msg) {
		t.Fatal("round trip changed message")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, _ := RandomKey(nil)
	k2, _ := RandomKey(nil)
	box, _ := Seal(k1, []byte("msg"), nil, nil)
	if _, err := Open(k2, box, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong key: got %v, want ErrDecrypt", err)
	}
}

func TestOpenRejectsWrongAAD(t *testing.T) {
	key, _ := RandomKey(nil)
	box, _ := Seal(key, []byte("msg"), []byte("aad-a"), nil)
	if _, err := Open(key, box, []byte("aad-b")); !errors.Is(err, ErrDecrypt) {
		t.Fatal("AAD mismatch accepted")
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	key, _ := RandomKey(nil)
	box, _ := Seal(key, []byte("msg"), nil, nil)
	box[len(box)-1] ^= 0x01
	if _, err := Open(key, box, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestOpenRejectsShortInput(t *testing.T) {
	key, _ := RandomKey(nil)
	if _, err := Open(key, make([]byte, Overhead-1), nil); !errors.Is(err, ErrShortCiphertext) {
		t.Fatal("short ciphertext accepted")
	}
}

func TestSealNoncesVary(t *testing.T) {
	key, _ := RandomKey(nil)
	b1, _ := Seal(key, []byte("m"), nil, nil)
	b2, _ := Seal(key, []byte("m"), nil, nil)
	if bytes.Equal(b1[:NonceSize], b2[:NonceSize]) {
		t.Fatal("nonce reuse across seals")
	}
}

func TestRandomKeyVaries(t *testing.T) {
	k1, _ := RandomKey(nil)
	k2, _ := RandomKey(nil)
	if k1 == k2 {
		t.Fatal("RandomKey returned identical keys")
	}
}

func TestSealEmptyPlaintext(t *testing.T) {
	key, _ := RandomKey(nil)
	box, err := Seal(key, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Open(key, box, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty plaintext round trip failed: %v", err)
	}
}

// SealNonce writes Seal's layout under the caller's nonce, after whatever dst
// already holds, and Open reads it back.
func TestSealNonceAppendsSealLayout(t *testing.T) {
	key, _ := RandomKey(nil)
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	nonce := bytes.Repeat([]byte{7}, NonceSize)
	prefix := []byte("prefix")
	out := s.SealNonce(append([]byte(nil), prefix...), nonce, []byte("msg"), []byte("aad"))
	if !bytes.HasPrefix(out, prefix) || len(out) != len(prefix)+len("msg")+Overhead {
		t.Fatalf("SealNonce wrote %d bytes after the prefix, want %d", len(out)-len(prefix), len("msg")+Overhead)
	}
	box := out[len(prefix):]
	if !bytes.Equal(box[:NonceSize], nonce) {
		t.Fatal("box does not start with the caller's nonce")
	}
	if pt, err := s.Open(box, []byte("aad")); err != nil || string(pt) != "msg" {
		t.Fatalf("Open(SealNonce box) = %q, %v", pt, err)
	}
}

// TestECIESRoundTrip checks the ECIES wire layout (65-byte ephemeral P-256
// point, then a Seal box) and that a box opens only under its recipient's
// key and associated data.
func TestECIESRoundTrip(t *testing.T) {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("user secret key")
	box, err := SealECIES(priv.PublicKey(), msg, []byte("usk|alice"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != 65+len(msg)+Overhead {
		t.Fatalf("ECIES box is %d bytes, want %d", len(box), 65+len(msg)+Overhead)
	}
	if got, err := OpenECIES(priv, box, []byte("usk|alice")); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("OpenECIES = %q, %v", got, err)
	}
	if _, err := OpenECIES(priv, box, []byte("usk|bob")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong AAD: %v, want ErrDecrypt", err)
	}
	if _, err := OpenECIES(other, box, []byte("usk|alice")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong recipient: %v, want ErrDecrypt", err)
	}
	if _, err := OpenECIES(priv, box[:65+Overhead-1], []byte("usk|alice")); err == nil {
		t.Fatal("a box shorter than point plus overhead opened")
	}
}
