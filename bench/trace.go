package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// span is one boundary crossing recorded by the bench's own decorators:
// name, start, end and the span that caused it. Spans of one operation share
// Root. Times are nanoseconds since the recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Root   int64  `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Kind and Group describe root spans ("add", "remove", "read", …).
	Kind  string `json:"kind,omitempty"`
	Group string `json:"group,omitempty"`
	// Object and Bytes describe store spans: the object name and the payload
	// size moved.
	Object string `json:"object,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, so the untraced run pays for no decorator at all; in the
// traced run `on` switches recording per block of admin ops, which is what
// bench.trace_overhead_share compares.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64

	mu    sync.Mutex
	spans []*span

	// adminOp is the admin driver's open root span. Exactly one admin op is
	// outstanding at a time, so admin-side store calls that lost their
	// context (page rehydration runs under context.Background) still belong
	// to it.
	adminOp atomic.Pointer[span]
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// spanSlot is a parent that changes under a long-lived context: the watcher
// runs one Watch call for the whole workload, and each of its wake-ups is a
// root of its own.
type spanSlot = atomic.Pointer[span]

func withSpanSlot(ctx context.Context, slot *spanSlot) context.Context {
	return context.WithValue(ctx, spanKey{}, slot)
}

func spanFrom(ctx context.Context) *span {
	switch v := ctx.Value(spanKey{}).(type) {
	case *span:
		return v
	case *spanSlot:
		return v.Load()
	}
	return nil
}

// start opens a span under parent (nil parent = a root). Roots are recorded
// only while recording is on and children only under a recorded parent, so a
// tree is always whole. It may return nil; every method accepts a nil span.
func (r *recorder) start(parent *span, name string) *span {
	if r == nil || (parent == nil && !r.on.Load()) {
		return nil
	}
	s := &span{ID: r.next.Add(1), Name: name, Start: int64(time.Since(r.epoch))}
	if parent != nil {
		s.Parent, s.Root = parent.ID, parent.Root
	} else {
		s.Root = s.ID
	}
	return s
}

func (r *recorder) end(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []*span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*span(nil), r.spans...)
}

// writeFile dumps every span as one JSON array.
func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// spanStore decorates a storage.Store with a `store.<method>` span per call.
// The admin side and the member side each get their own handle onto the same
// MemStore, so their traffic is accounted separately.
type spanStore struct {
	inner storage.Store
	rec   *recorder
	// admin marks the admin-side handle, whose context-less calls fall back
	// to the driver's open op.
	admin bool
}

var (
	_ storage.Store             = (*spanStore)(nil)
	_ storage.ConditionalGetter = (*spanStore)(nil)
)

func (s *spanStore) begin(ctx context.Context, method, name string, bytes int) *span {
	parent := spanFrom(ctx)
	if parent == nil && s.admin {
		parent = s.rec.adminOp.Load()
	}
	if parent == nil {
		return nil // background traffic (leases, membership watches, set-up)
	}
	sp := s.rec.start(parent, "store."+method)
	if sp != nil {
		sp.Object, sp.Bytes = name, bytes
	}
	return sp
}

func (s *spanStore) Put(ctx context.Context, dir, name string, data []byte) error {
	sp := s.begin(ctx, "put", name, len(data))
	defer s.rec.end(sp)
	return s.inner.Put(ctx, dir, name, data)
}

func (s *spanStore) PutIf(ctx context.Context, dir, name string, data []byte, ifDirVersion uint64) error {
	sp := s.begin(ctx, "put_if", name, len(data))
	defer s.rec.end(sp)
	return s.inner.PutIf(ctx, dir, name, data, ifDirVersion)
}

func (s *spanStore) PutFenced(ctx context.Context, dir, name string, data []byte, ifDirVersion, epoch uint64) error {
	sp := s.begin(ctx, "put_fenced", name, len(data))
	defer s.rec.end(sp)
	return s.inner.PutFenced(ctx, dir, name, data, ifDirVersion, epoch)
}

func (s *spanStore) Delete(ctx context.Context, dir, name string) error {
	sp := s.begin(ctx, "delete", name, 0)
	defer s.rec.end(sp)
	return s.inner.Delete(ctx, dir, name)
}

func (s *spanStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	sp := s.begin(ctx, "get", name, 0)
	data, err := s.inner.Get(ctx, dir, name)
	if sp != nil {
		sp.Bytes = len(data)
	}
	s.rec.end(sp)
	return data, err
}

func (s *spanStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	sp := s.begin(ctx, "get_versioned", name, 0)
	data, ver, err := s.inner.GetVersioned(ctx, dir, name)
	if sp != nil {
		sp.Bytes = len(data)
	}
	s.rec.end(sp)
	return data, ver, err
}

func (s *spanStore) GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	sp := s.begin(ctx, "get_versioned_if", name, 0)
	data, ver, err := storage.GetVersionedIf(ctx, s.inner, dir, name, ifVersion)
	if sp != nil {
		sp.Bytes = len(data)
	}
	s.rec.end(sp)
	return data, ver, err
}

func (s *spanStore) List(ctx context.Context, dir string) ([]string, error) {
	sp := s.begin(ctx, "list", "", 0)
	defer s.rec.end(sp)
	return s.inner.List(ctx, dir)
}

func (s *spanStore) Version(ctx context.Context, dir string) (uint64, error) {
	sp := s.begin(ctx, "version", "", 0)
	defer s.rec.end(sp)
	return s.inner.Version(ctx, dir)
}

// Poll is not a span: it blocks for as long as nothing happens.
func (s *spanStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	return s.inner.Poll(ctx, dir, since)
}

// isRoundTrip reports whether a store span is an object read or write — what
// the ledger counts as a store call. Version is answered by MemStore without
// a round trip and is left out, as MemStore.Stats leaves it out.
func isRoundTrip(name string) bool {
	return strings.HasPrefix(name, "store.") && name != "store.version"
}

// isRecordObject reports whether a store object is a partition record (the
// reserved objects of a group directory start with "_").
func isRecordObject(object string) bool {
	return object != "" && !strings.HasPrefix(object, "_")
}

// spanHeader carries the caller's span ID over the loopback HTTP hop, so the
// shard's handler span becomes a child of the route's HTTP span.
const spanHeader = "X-Bench-Span"

// spanTransport is the http.RoundTripper child of the route span.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	if parent == nil {
		return t.base.RoundTrip(req)
	}
	sp := t.rec.start(parent, "http")
	defer t.rec.end(sp)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(sp.ID, 10)+"/"+strconv.FormatInt(sp.Root, 10))
	return t.base.RoundTrip(req)
}

// spanHandler wraps a shard's http.Handler in a `shard` span.
type spanHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parentID, rootID, ok := strings.Cut(r.Header.Get(spanHeader), "/")
	pid, err1 := strconv.ParseInt(parentID, 10, 64)
	rid, err2 := strconv.ParseInt(rootID, 10, 64)
	if !ok || err1 != nil || err2 != nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	sp := h.rec.start(&span{ID: pid, Root: rid}, "shard")
	defer h.rec.end(sp)
	h.inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
}

// pollTap is the one pass-through the watcher's client gets in both runs: it
// remembers the directory version its last Poll returned, which is how a
// delivery is matched to the removals it makes visible. In the traced run
// each return from Poll also opens a `watch.wake` root (renamed
// `watch.deliver` when the wake-up ends in a new key) that lasts until the
// client polls again.
type pollTap struct {
	storage.Store
	rec         *recorder
	lastVersion atomic.Uint64
	wake        spanSlot
}

func (p *pollTap) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	p.endWake()
	v, err := p.Store.Poll(ctx, dir, since)
	if err == nil {
		p.lastVersion.Store(v)
		if sp := p.rec.start(nil, "watch.wake"); sp != nil {
			sp.Group = dir
			p.wake.Store(sp)
		}
	}
	return v, err
}

func (p *pollTap) endWake() {
	if sp := p.wake.Swap(nil); sp != nil {
		p.rec.end(sp)
	}
}
