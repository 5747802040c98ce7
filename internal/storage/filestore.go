package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileStore is a durable Store backend: each directory is a filesystem
// directory under the root, each object a file, with atomic replace via
// rename. Directory versions persist in a ".version" file so long-polling
// clients survive a cloudsim restart without replaying history. Long-poll
// wake-ups are in-process (a restarted server wakes clients through their
// reconnect, like any real blob store).
//
// FileStore is not a Committer: making several file renames plus the version
// bump all-or-nothing across a crash needs a journal, which is out of scope.
// storage.Commit against it (directly, or through a Server) runs the chain of
// conditional puts, exactly as before the commit path existed.
type FileStore struct {
	root string

	mu      sync.Mutex
	waiters map[string][]chan struct{}
}

var _ Store = (*FileStore)(nil)

// NewFileStore opens (or creates) a file-backed store rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating root: %w", err)
	}
	return &FileStore{root: dir, waiters: make(map[string][]chan struct{})}, nil
}

// escape maps arbitrary names to safe single filesystem components.
func escape(name string) string {
	return url.PathEscape(name)
}

func (f *FileStore) dirPath(dir string) string {
	return filepath.Join(f.root, escape(dir))
}

func (f *FileStore) objPath(dir, name string) string {
	return filepath.Join(f.dirPath(dir), "obj-"+escape(name))
}

const (
	versionFile = ".version"
	// epochFile persists the directory's fencing watermark (highest epoch a
	// PutFenced ever carried), so a cloudsim restart cannot resurrect a
	// fenced-out administrator.
	epochFile = ".epoch"
)

// Put implements Store.
func (f *FileStore) Put(ctx context.Context, dir, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := f.writeObject(dir, name, data); err != nil {
		return err
	}
	return f.bump(dir)
}

// writeObject atomically replaces one object file.
func (f *FileStore) writeObject(dir, name string, data []byte) error {
	return atomicWrite(f.dirPath(dir), f.objPath(dir, name), data)
}

// atomicWrite commits data to path via temp+rename inside dp (created if
// missing): a crash at any point leaves either the previous file intact or
// a stray temp file List ignores — never a truncated target. The single
// crash-safety discipline for objects AND bookkeeping counters.
func atomicWrite(dp, path string, data []byte) error {
	if err := os.MkdirAll(dp, 0o755); err != nil {
		return fmt.Errorf("storage: creating directory: %w", err)
	}
	tmp, err := os.CreateTemp(dp, ".tmp-*")
	if err != nil {
		return fmt.Errorf("storage: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("storage: writing %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// PutIf implements Store. The version check, object write and version bump
// run under the store lock, so concurrent conditional writers serialise.
func (f *FileStore) PutIf(ctx context.Context, dir, name string, data []byte, ifDirVersion uint64) error {
	return f.PutFenced(ctx, dir, name, data, ifDirVersion, 0)
}

// PutFenced implements Store. The fence check, version check, object write,
// watermark persist and version bump all run under the store lock.
func (f *FileStore) PutFenced(ctx context.Context, dir, name string, data []byte, ifDirVersion, epoch uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var watermark uint64
	if epoch > 0 {
		var err error
		if watermark, err = f.readCounter(dir, epochFile); err != nil {
			// A corrupt watermark must NEVER decode as "no fence": failing
			// loud keeps a crash-truncated .epoch from silently unfencing
			// the directory for zombies from superseded memberships.
			return err
		}
		if epoch < watermark {
			return fmt.Errorf("%w: %s fenced at epoch %d, write carries %d", ErrFenced, dir, watermark, epoch)
		}
	}
	cur, err := f.readVersion(dir)
	if err != nil {
		return err
	}
	if cur != ifDirVersion {
		return fmt.Errorf("%w: %s at %d, want %d", ErrVersionConflict, dir, cur, ifDirVersion)
	}
	// The watermark persists BEFORE the object: a crash in between leaves
	// the fence conservatively high (a same-epoch writer simply retries its
	// CAS), whereas object-first would leave a restart window in which a
	// fenced-out zombie passes both checks and clobbers the newer write.
	// Rewriting only on advance also skips a write per same-epoch op (lease
	// renewals, CAS applies — the hot path).
	if epoch > watermark {
		if err := f.writeCounter(dir, epochFile, epoch); err != nil {
			return fmt.Errorf("storage: persisting fence epoch: %w", err)
		}
	}
	if err := f.writeObject(dir, name, data); err != nil {
		return err
	}
	return f.bumpLocked(dir)
}

// Delete implements Store.
func (f *FileStore) Delete(ctx context.Context, dir, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	err := os.Remove(f.objPath(dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
	}
	if err != nil {
		return err
	}
	return f.bump(dir)
}

// Get implements Store.
func (f *FileStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(f.objPath(dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
	}
	return data, err
}

// GetVersioned implements Store. f.mu is held across the version read and
// the object read, so the pair is consistent against concurrent PutIf
// (plain Put bumps under the same lock via bump).
func (f *FileStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	return f.getVersioned(ctx, dir, name, 0)
}

// GetVersionedIf implements ConditionalGetter.
func (f *FileStore) GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	return f.getVersioned(ctx, dir, name, ifVersion)
}

func (f *FileStore) getVersioned(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ver, err := f.readVersion(dir)
	if err != nil {
		return nil, 0, err
	}
	if ifVersion != 0 && ver == ifVersion {
		return nil, ver, fmt.Errorf("%w: %s at %d", ErrNotModified, dir, ver)
	}
	data, err := os.ReadFile(f.objPath(dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
	}
	if err != nil {
		return nil, 0, err
	}
	return data, ver, nil
}

// List implements Store.
func (f *FileStore) List(ctx context.Context, dir string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(f.dirPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		raw, ok := strings.CutPrefix(e.Name(), "obj-")
		if !ok {
			continue // version file, temp files
		}
		name, err := url.PathUnescape(raw)
		if err != nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Version implements Store.
func (f *FileStore) Version(ctx context.Context, dir string) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return f.readVersion(dir)
}

// Poll implements Store.
func (f *FileStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	for {
		if v, err := f.readVersion(dir); err != nil {
			return 0, err
		} else if v > since {
			return v, nil
		}
		f.mu.Lock()
		ch := make(chan struct{})
		f.waiters[dir] = append(f.waiters[dir], ch)
		f.mu.Unlock()
		// Re-check after arming to close the race with a concurrent bump.
		if v, err := f.readVersion(dir); err != nil {
			return 0, err
		} else if v > since {
			return v, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

func (f *FileStore) readVersion(dir string) (uint64, error) {
	return f.readCounter(dir, versionFile)
}

// readCounter reads one of the directory's 8-byte bookkeeping files
// (.version, .epoch). Absent means 0; a short or unreadable file is a
// corruption error, never 0 — decoding a truncated .epoch as zero would
// silently unfence the directory, and a zero .version would re-open every
// CAS writer's window.
func (f *FileStore) readCounter(dir, file string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(f.dirPath(dir), file))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: reading %s counter for %s: %w", file, dir, err)
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("storage: corrupt %s counter for %s: %d bytes, want 8", file, dir, len(raw))
	}
	return binary.BigEndian.Uint64(raw), nil
}

// writeCounter persists one bookkeeping counter, creating the directory if
// this fenced write is its first mutation. Counters share the objects'
// temp+rename discipline: a crash mid-write must leave the previous
// counter intact, not a truncated file that readCounter would reject (or,
// worse, a bare-WriteFile torso that could decode as a smaller value).
func (f *FileStore) writeCounter(dir, file string, v uint64) error {
	dp := f.dirPath(dir)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return atomicWrite(dp, filepath.Join(dp, file), buf[:])
}

// bump persists the next version and wakes pollers. Serialised by f.mu so
// concurrent Puts cannot lose increments.
func (f *FileStore) bump(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bumpLocked(dir)
}

// bumpLocked is bump with f.mu already held (PutIf holds it across the
// version check and the object write).
func (f *FileStore) bumpLocked(dir string) error {
	cur, err := f.readVersion(dir)
	if err != nil {
		return err
	}
	if err := f.writeCounter(dir, versionFile, cur+1); err != nil {
		return fmt.Errorf("storage: persisting version: %w", err)
	}
	for _, ch := range f.waiters[dir] {
		close(ch)
	}
	delete(f.waiters, dir)
	return nil
}
