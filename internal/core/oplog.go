package core

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// OpLog implements the paper's third future-work item (§VIII): certifying
// blocks of membership-operation logs so that, in a multi-administrator
// deployment, each admin's changes are accountable and tamper-evident. It
// is a hash-chained append-only log — the "blockchain-like" technology the
// paper sketches, without the consensus machinery a single storage provider
// does not need — hash-chained per op and signed per export: Append links
// and hashes an entry, and the admin's ECDSA signature goes on the last
// entry of each block that leaves the log (Entries, CheckpointBefore). That
// one signature certifies the whole block, since every entry's hash covers
// its predecessor's (Crosby & Wallach, USENIX Security 2009, sign the log
// head the same way). Entries leave the process only through those two
// calls, and the signing key lives in the same memory as the entries, so
// deferring the signature to the export loses nothing.
type OpLog struct {
	mu      sync.Mutex
	key     *ecdsa.PrivateKey
	entries []LogEntry
	// baseSeq/baseHash anchor the chain after a checkpoint: entries before
	// and including baseSeq have been truncated, and baseHash is the hash of
	// entry baseSeq (zero for a never-truncated log). Appends link to the
	// anchor when the retained window is empty, so verifiability survives
	// truncation (VerifyChainFrom).
	baseSeq  uint64
	baseHash [32]byte
}

// OpKind enumerates membership operations. Values start at one so the zero
// value is invalid.
type OpKind int

// Membership operation kinds.
const (
	OpCreateGroup OpKind = iota + 1
	OpAddUser
	OpRemoveUser
	OpRekey
	OpRepartition
)

// String renders the kind for logs.
func (k OpKind) String() string {
	switch k {
	case OpCreateGroup:
		return "create-group"
	case OpAddUser:
		return "add-user"
	case OpRemoveUser:
		return "remove-user"
	case OpRekey:
		return "rekey"
	case OpRepartition:
		return "repartition"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// LogEntry is one membership operation. Sig is the admin's signature over
// Hash on the last entry of an export (and on any entry that was once
// one), empty elsewhere.
type LogEntry struct {
	Seq      uint64
	Time     time.Time
	Admin    string
	Group    string
	Kind     OpKind
	User     string
	PrevHash [32]byte
	Hash     [32]byte
	Sig      []byte
}

// Errors returned by log verification.
var (
	// ErrLogTampered reports a broken hash chain, a bad signature, or an
	// export whose last entry is unsigned (a truncated tail).
	ErrLogTampered = errors.New("core: operation log tampered")
)

// NewOpLog creates a log with a fresh admin signing key.
func NewOpLog() (*OpLog, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: generating log key: %w", err)
	}
	return &OpLog{key: key}, nil
}

// PublicKey returns the verification key for the log.
func (l *OpLog) PublicKey() *ecdsa.PublicKey { return &l.key.PublicKey }

// Append links one operation into the chain and hashes it; it does not
// sign (see OpLog), so the returned copy carries no signature. The error
// is always nil.
func (l *OpLog) Append(admin, group string, kind OpKind, user string) (*LogEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := LogEntry{
		Seq:   l.baseSeq + uint64(len(l.entries)) + 1,
		Time:  time.Now().UTC(),
		Admin: admin,
		Group: group,
		Kind:  kind,
		User:  user,
	}
	if n := len(l.entries); n > 0 {
		e.PrevHash = l.entries[n-1].Hash
	} else {
		e.PrevHash = l.baseHash
	}
	e.Hash = e.digest()
	l.entries = append(l.entries, e)
	out := e
	return &out, nil
}

// Entries returns a copy of the retained log, its last entry signed.
func (l *OpLog) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.export(l.entries)
}

// export signs the last entry of es in place unless it already carries a
// signature, then returns a deep copy of es. A failed signature leaves the
// entry unsigned, so verifying the export fails closed. Callers hold l.mu.
func (l *OpLog) export(es []LogEntry) []LogEntry {
	if n := len(es); n > 0 && len(es[n-1].Sig) == 0 {
		if sig, err := ecdsa.SignASN1(rand.Reader, l.key, es[n-1].Hash[:]); err == nil {
			es[n-1].Sig = sig
		}
	}
	out := append([]LogEntry(nil), es...)
	for i := range out {
		out[i].Sig = bytes.Clone(out[i].Sig)
	}
	return out
}

// Len returns the number of certified operations, including truncated ones.
func (l *OpLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.baseSeq) + len(l.entries)
}

// Checkpoint returns the current chain anchor: the sequence number of the
// last truncated entry and its hash (zero values for a never-truncated log).
// Auditors persist the pair to verify later exports with VerifyChainFrom.
func (l *OpLog) Checkpoint() (uint64, [32]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseSeq, l.baseHash
}

// CheckpointBefore truncates every entry with Seq < n, bounding the log's
// memory to the retained window while keeping the chain verifiable: the hash
// of entry n-1 becomes the checkpoint anchor future entries (and
// VerifyChainFrom) link against. Long-running administrators call it
// periodically after archiving the returned entries elsewhere. It returns
// the truncated entries (empty when n is not past the current anchor), the
// last one signed, so the archived block verifies on its own.
func (l *OpLog) CheckpointBefore(n uint64) []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= l.baseSeq+1 {
		return nil
	}
	// Clamp to "everything appended so far".
	if top := l.baseSeq + uint64(len(l.entries)) + 1; n > top {
		n = top
	}
	cut := int(n - 1 - l.baseSeq) // entries[:cut] have Seq < n
	dropped := l.export(l.entries[:cut])
	if cut > 0 {
		l.baseSeq = l.entries[cut-1].Seq
		l.baseHash = l.entries[cut-1].Hash
		l.entries = append(l.entries[:0:0], l.entries[cut:]...)
	}
	return dropped
}

// VerifyChain validates hash links and signatures for an exported log
// against the admin public key; any mutation, and any truncation of the
// tail, fails with ErrLogTampered.
func VerifyChain(entries []LogEntry, pub *ecdsa.PublicKey) error {
	var zero [32]byte
	return VerifyChainFrom(entries, pub, 0, zero)
}

// VerifyChainFrom validates a log exported after a checkpoint: entries must
// continue the chain at baseSeq+1 with the first PrevHash equal to baseHash
// (both from OpLog.Checkpoint taken when the prefix was archived). Every
// link and every signature present must check, and the last entry must
// carry a valid signature: through the chain it certifies all the others.
// An empty export certifies nothing and passes.
func VerifyChainFrom(entries []LogEntry, pub *ecdsa.PublicKey, baseSeq uint64, baseHash [32]byte) error {
	prev := baseHash
	for i, e := range entries {
		if e.Seq != baseSeq+uint64(i+1) {
			return fmt.Errorf("%w: sequence gap at %d", ErrLogTampered, i)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("%w: broken chain at seq %d", ErrLogTampered, e.Seq)
		}
		if e.digest() != e.Hash {
			return fmt.Errorf("%w: hash mismatch at seq %d", ErrLogTampered, e.Seq)
		}
		if len(e.Sig) > 0 && !ecdsa.VerifyASN1(pub, e.Hash[:], e.Sig) {
			return fmt.Errorf("%w: bad signature at seq %d", ErrLogTampered, e.Seq)
		}
		prev = e.Hash
	}
	if n := len(entries); n > 0 && len(entries[n-1].Sig) == 0 {
		return fmt.Errorf("%w: unsigned head at seq %d", ErrLogTampered, entries[n-1].Seq)
	}
	return nil
}

// digest hashes the entry's certified fields.
func (e *LogEntry) digest() [32]byte {
	h := sha256.New()
	h.Write([]byte("ibbe-oplog-v1|"))
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], e.Seq)
	h.Write(num[:])
	binary.BigEndian.PutUint64(num[:], uint64(e.Time.UnixNano()))
	h.Write(num[:])
	for _, s := range []string{e.Admin, e.Group, e.Kind.String(), e.User} {
		binary.BigEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		h.Write([]byte(s))
	}
	h.Write(e.PrevHash[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
