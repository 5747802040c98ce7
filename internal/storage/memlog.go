package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
)

// The durable MemStore keeps its state in one append-only file, store.log,
// under its data directory: logMagic, then one record per mutation,
//
//	uint32 len(payload) | crc32c(payload) | crc32c(the 8 bytes before) | payload
//	payload = uvarint len(dir) | dir | uvarint version | uvarint fence | objects
//
// where version and fence are the directory's version and fence watermark
// AFTER the record and the objects are in the commit wire format
// (appendCommitBody). A snapshot is the same records, one per directory,
// each putting every object the directory holds; so the first record of a
// directory may start at any version and every later one is the next.
const (
	logName      = "store.log"
	logHeaderLen = 12
	// compactFactor bounds the log: once it is larger than this many
	// snapshots of the live state, it is rewritten as one.
	compactFactor = 4
)

var (
	logMagic = []byte("IBBELOG\x01")
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// memLog is the durable MemStore's log. Its fields are guarded by the
// store's mutex.
type memLog struct {
	dir  string
	f    *os.File // the log, opened for appending
	size int64    // bytes in f
	live int64    // bytes a snapshot of the store takes (magic included)
	buf  []byte   // record encoding buffer
	// err, once set, refuses every later write: a failed append may have
	// left part of a record behind, and a failed compaction may have left
	// f pointing at an unlinked file. Reopening recovers.
	err error
}

// OpenMemStore opens the durable store kept in dir, creating dir if needed.
// It replays the log there, rewrites it as a snapshot, and from then on
// appends and fsyncs every mutation before the mutation becomes visible or
// is acknowledged. The whole state stays memory-resident; the log is read
// only by the next open. A log whose last record was cut short by a crash
// opens at the state before that record, since the write it carried was
// never acknowledged; any other damage fails the open.
func OpenMemStore(dir string, lat Latency) (*MemStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, logName)
	m := NewMemStore(lat)
	raw, err := os.ReadFile(path)
	if err == nil {
		err = m.replay(raw)
	} else if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: opening %s: %w", path, err)
	}
	m.puts, m.byteRx, m.deletes = 0, 0, 0 // replaying is not traffic
	m.log = &memLog{dir: dir}
	if err := m.compact(); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// Close closes the log of a durable store; every later write fails. It is
// a no-op in memory.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil || m.log.f == nil {
		return nil
	}
	m.log.err = errors.New("storage: store closed")
	err := m.log.f.Close()
	m.log.f = nil
	return err
}

// append logs one mutation and fsyncs it. On failure it cuts the file back
// to the last whole record, as far as it can, and refuses every later write.
func (l *memLog) append(dir string, version, fence uint64, objs []Object) error {
	if l.err != nil {
		return l.err
	}
	l.buf = appendRecord(l.buf[:0], dir, version, fence, objs)
	_, err := l.f.Write(l.buf)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		_ = l.f.Truncate(l.size)
		l.err = fmt.Errorf("storage: appending to log: %w", err)
		return l.err
	}
	l.size += int64(len(l.buf))
	return nil
}

// compact rewrites the log as a snapshot of the store — temp file, fsync,
// rename over the log, fsync of the directory — and reopens it for
// appending. Callers hold m.mu.
func (m *MemStore) compact() error {
	l := m.log
	if l.err != nil {
		return l.err
	}
	snap := m.appendSnapshot(nil)
	path := filepath.Join(l.dir, logName)
	if err := syncFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, snap); err != nil {
		return fmt.Errorf("storage: compacting log: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("storage: compacting log: %w", err)
	}
	// From here on the old handle names an unlinked file.
	if l.f != nil {
		l.f.Close()
	}
	var err error
	if l.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err == nil {
		err = syncFile(l.dir, os.O_RDONLY, nil)
	}
	if err != nil {
		l.err = fmt.Errorf("storage: reopening compacted log: %w", err)
		return l.err
	}
	l.size, l.live = int64(len(snap)), int64(len(snap))
	return nil
}

// syncFile opens path (a file or a directory), writes data and fsyncs it.
func syncFile(path string, flag int, data []byte) error {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendSnapshot encodes the store as a log: one record per directory, in
// name order, objects in name order. Callers hold m.mu.
func (m *MemStore) appendSnapshot(buf []byte) []byte {
	buf = append(buf, logMagic...)
	for _, dir := range slices.Sorted(maps.Keys(m.dirs)) {
		d := m.dirs[dir]
		objs := make([]Object, 0, len(d.objects))
		for _, name := range slices.Sorted(maps.Keys(d.objects)) {
			objs = append(objs, Object{Name: name, Data: d.objects[name]})
		}
		buf = appendRecord(buf, dir, d.version, d.fenceEpoch, objs)
	}
	return buf
}

func appendRecord(buf []byte, dir string, version, fence uint64, objs []Object) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, logHeaderLen)...)
	buf = binary.AppendUvarint(buf, uint64(len(dir)))
	buf = append(buf, dir...)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, fence)
	buf = appendCommitBody(buf, objs)
	sealRecord(buf[start:])
	return buf
}

// sealRecord fills in the header of rec, a whole record.
func sealRecord(rec []byte) {
	h, payload := rec[:logHeaderLen], rec[logHeaderLen:]
	binary.BigEndian.PutUint32(h, uint32(len(payload)))
	binary.BigEndian.PutUint32(h[4:], crc32.Checksum(payload, crcTable))
	binary.BigEndian.PutUint32(h[8:], crc32.Checksum(h[:8], crcTable))
}

// recordSize is what the directory's record takes in a snapshot.
func (d *memDir) recordSize(dir string) int64 {
	return logHeaderLen + int64(uvarintLen(uint64(len(dir)))+len(dir)+uvarintLen(d.version)+uvarintLen(d.fenceEpoch)) + d.bytes
}

// objectSize is what a put of data under name takes in a record.
func objectSize(name string, data []byte) int64 {
	return int64(1 + uvarintLen(uint64(len(name))) + len(name) + uvarintLen(uint64(len(data))) + len(data))
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// replay applies a log image to an empty store. The bytes come from disk,
// so every length is checked against what is left before it is used. A
// record whose header checks out but whose payload runs past the end is a
// torn tail and is dropped, as is a header cut short; every other defect —
// a bad checksum anywhere, a version that skips, a watermark that falls —
// is an error, so a damaged log never opens at a lower version or fence.
func (m *MemStore) replay(raw []byte) error {
	rest, ok := bytes.CutPrefix(raw, logMagic)
	if !ok {
		return errors.New("not a store log")
	}
	for len(rest) >= logHeaderLen {
		off := len(raw) - len(rest)
		h := rest[:logHeaderLen]
		if crc32.Checksum(h[:8], crcTable) != binary.BigEndian.Uint32(h[8:]) {
			return fmt.Errorf("corrupt record header at offset %d", off)
		}
		n := binary.BigEndian.Uint32(h)
		if uint64(n) > uint64(len(rest)-logHeaderLen) {
			return nil // torn tail
		}
		payload := rest[logHeaderLen : logHeaderLen+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(h[4:]) {
			return fmt.Errorf("corrupt record at offset %d", off)
		}
		if err := m.replayRecord(payload); err != nil {
			return fmt.Errorf("record at offset %d: %w", off, err)
		}
		rest = rest[logHeaderLen+int(n):]
	}
	return nil
}

func (m *MemStore) replayRecord(p []byte) error {
	dir, p, ok := cutField(p)
	version, w := binary.Uvarint(p)
	fence, w2 := binary.Uvarint(p[max(w, 0):])
	if !ok || w <= 0 || w2 <= 0 {
		return errors.New("bad record")
	}
	objs, err := parseCommitBody(p[w+w2:])
	if err != nil {
		return err
	}
	if d := m.dirs[string(dir)]; version == 0 || d != nil && (version != d.version+1 || fence < d.fenceEpoch) {
		return fmt.Errorf("directory %q cannot move to version %d, fence %d", dir, version, fence)
	}
	m.apply(string(dir), objs, version, fence)
	return nil
}
