package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
)

// Object is one entry of a Commit: a write of Data under Name, or — with
// Delete set — the removal of Name (Data is ignored).
type Object struct {
	Name   string
	Data   []byte
	Delete bool
}

// Committer is the optional all-or-nothing multi-object write: a store that
// implements it applies every object of one Commit, or none, in ONE round
// trip and one critical section — one fence check, one version check, one
// directory-version bump (newDirVersion = ifDirVersion + 1) and one poller
// wake-up, so no reader ever observes a mix of two commits. The checks are
// PutFenced's: the fence dominates the version conflict, epoch 0 carries no
// fence, and a rejected commit changes no object, no version and no fence
// watermark. Deleting a missing object is not an error. An implementation
// does not retain objs or their Data after it returns. MemStore (in memory
// or durable), HTTPStore (against a Server) and Instrument over either
// implement it; Commit falls back to a chain of conditional puts for stores
// that do not (FaultStore, decorators that do not forward Commit).
type Committer interface {
	Commit(ctx context.Context, dir string, objs []Object, ifDirVersion, epoch uint64) (newDirVersion uint64, err error)
}

// MaxCommitPayload is the largest total payload (sum of len(Data)) a caller
// should put in one Commit: every native backend accepts at least this much
// (the Server's body limit leaves room for the framing on top). A caller
// with more splits it into consecutive commits, each chained on the version
// the previous one returned.
const MaxCommitPayload = 32 << 20

// errNoPut rejects a commit without a single write, on every backend: the
// chain below needs a conditional put to carry the version and fence checks
// (Store has no conditional delete), and no caller commits only deletes.
var errNoPut = errors.New("storage: commit needs at least one put")

func checkCommit(objs []Object) error {
	for _, o := range objs {
		if !o.Delete {
			return nil
		}
	}
	return errNoPut
}

// Commit writes objs to dir through the store's native Committer when it
// has one (selection is by type assertion alone), and otherwise as a chain:
// one conditional put per object in slice order — PutFenced when epoch > 0,
// PutIf when not, each expecting the version the previous write produced —
// and one unconditional Delete per removal, tolerating ErrNotFound. It
// returns the resulting directory version.
//
// The chain is NOT atomic: a failure after its first write leaves the
// directory torn, and the version it returns on success is ifDirVersion plus
// the number of writes that landed. Its first write is the race arbiter — a
// stale or fenced-out writer fails there, before anything changed — so a
// slice that leads with a delete has its last put written first as a guard
// (and again in its place): an unconditional delete never runs ahead of a
// conditional write. Callers that need torn snapshots to be detectable put
// the object readers arbitrate on (the admin's sealed group key) last.
func Commit(ctx context.Context, s Store, dir string, objs []Object, ifDirVersion, epoch uint64) (uint64, error) {
	if c, ok := s.(Committer); ok {
		return c.Commit(ctx, dir, objs, ifDirVersion, epoch)
	}
	if err := checkCommit(objs); err != nil {
		return 0, err
	}
	v := ifDirVersion
	put := func(o Object) error {
		var err error
		if epoch > 0 {
			err = s.PutFenced(ctx, dir, o.Name, o.Data, v, epoch)
		} else {
			err = s.PutIf(ctx, dir, o.Name, o.Data, v)
		}
		if err != nil {
			return fmt.Errorf("storage: commit putting %s/%s: %w", dir, o.Name, err)
		}
		v++
		return nil
	}
	if objs[0].Delete {
		guard := len(objs) - 1
		for objs[guard].Delete {
			guard--
		}
		if err := put(objs[guard]); err != nil {
			return 0, err
		}
	}
	for _, o := range objs {
		if !o.Delete {
			if err := put(o); err != nil {
				return 0, err
			}
			continue
		}
		err := s.Delete(ctx, dir, o.Name)
		if errors.Is(err, ErrNotFound) {
			continue // already gone (e.g. a prior interrupted chain); no bump
		}
		if err != nil {
			return 0, fmt.Errorf("storage: commit deleting %s/%s: %w", dir, o.Name, err)
		}
		v++
	}
	return v, nil
}

// The commit wire format (POST /v1/commit/{dir}?if-version=n&fence-epoch=e):
// the body is the objects back to back, each
//
//	kind byte (0 = put, 1 = delete) | uvarint len(name) | name |
//	puts only: uvarint len(data) | data
//
// and the 200 answer is JSON {"version": n}, the new directory version.
const (
	commitKindPut    = 0
	commitKindDelete = 1
)

// appendCommitBody encodes objs in the wire format.
func appendCommitBody(buf []byte, objs []Object) []byte {
	for _, o := range objs {
		if o.Delete {
			buf = append(buf, commitKindDelete)
		} else {
			buf = append(buf, commitKindPut)
		}
		buf = binary.AppendUvarint(buf, uint64(len(o.Name)))
		buf = append(buf, o.Name...)
		if !o.Delete {
			buf = binary.AppendUvarint(buf, uint64(len(o.Data)))
			buf = append(buf, o.Data...)
		}
	}
	return buf
}

// parseCommitRequest decodes what a commit request carries besides its
// directory: the query (if-version is required, fence-epoch defaults to 0)
// and the body, whose objects must be named and include a put. The returned
// objects alias body.
func parseCommitRequest(rawQuery string, body []byte) (objs []Object, ifVersion, epoch uint64, err error) {
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bad query: %v", err)
	}
	if ifVersion, epoch, err = parseCondition(q); err != nil {
		return nil, 0, 0, err
	}
	if objs, err = parseCommitBody(body); err != nil {
		return nil, 0, 0, err
	}
	for _, o := range objs {
		if o.Name == "" {
			return nil, 0, 0, errors.New("bad commit body: object name")
		}
	}
	if err := checkCommit(objs); err != nil {
		return nil, 0, 0, err
	}
	return objs, ifVersion, epoch, nil
}

// parseCommitBody decodes objects in the wire format: a commit request's
// body, or the tail of a log record. The input comes from outside the
// program, so every length is checked against what is left of the body
// before it is used; the returned objects alias body.
func parseCommitBody(body []byte) ([]Object, error) {
	var objs []Object
	for len(body) > 0 {
		kind := body[0]
		if kind != commitKindPut && kind != commitKindDelete {
			return nil, fmt.Errorf("bad commit body: object kind %d", kind)
		}
		name, rest, ok := cutField(body[1:])
		if !ok {
			return nil, errors.New("bad commit body: object name")
		}
		o := Object{Name: string(name), Delete: kind == commitKindDelete}
		if !o.Delete {
			if o.Data, rest, ok = cutField(rest); !ok {
				return nil, errors.New("bad commit body: object data")
			}
		}
		objs = append(objs, o)
		body = rest
	}
	return objs, nil
}

// cutField cuts one uvarint-prefixed field off the front of b.
func cutField(b []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, false
	}
	return b[w : w+int(n)], b[w+int(n):], true
}
