package storage

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/obs"
)

// Instrument wraps a Store so every operation feeds the registry: an op
// counter and latency histogram labelled by backend and op, plus dedicated
// counters for CAS conflicts and fence rejections — the two failure modes
// operators page on. Each op also opens a trace span when the context
// carries one. A nil registry returns the store unwrapped, so disabled
// observability costs nothing; the concrete backends (MemStore, in memory or
// durable, HTTPStore, FaultStore) never see the decorator. The decorator is a
// Committer exactly when inner is one, so decorating never changes whether
// Commit takes the native path or the chain (whose puts are then observed
// one by one, as before).
func Instrument(inner Store, r *obs.Registry) Store {
	if r == nil || inner == nil {
		return inner
	}
	s := &instrumentedStore{
		inner:     inner,
		backend:   backendName(inner),
		ops:       r.CounterVec("ibbe_store_ops_total", "Storage operations by backend and op.", "backend", "op"),
		seconds:   r.HistogramVec("ibbe_store_op_seconds", "Storage operation latency in seconds.", nil, "backend", "op"),
		conflicts: r.CounterVec("ibbe_store_cas_conflicts_total", "Conditional writes rejected by a directory version conflict.", "backend"),
		fenced:    r.CounterVec("ibbe_store_fence_rejections_total", "Writes rejected by the epoch fencing token.", "backend"),
	}
	if c, ok := inner.(Committer); ok {
		return &instrumentedCommitter{instrumentedStore: s, committer: c}
	}
	return s
}

// backendName maps a concrete store to its backend label.
func backendName(s Store) string {
	switch s.(type) {
	case *MemStore:
		return "mem"
	case *HTTPStore:
		return "http"
	case *FaultStore:
		return "fault"
	default:
		return fmt.Sprintf("%T", s)
	}
}

type instrumentedStore struct {
	inner     Store
	backend   string
	ops       *obs.CounterVec
	seconds   *obs.HistogramVec
	conflicts *obs.CounterVec
	fenced    *obs.CounterVec
}

// observe records one completed operation and classifies its error.
func (s *instrumentedStore) observe(ctx context.Context, op string, t0 time.Time, err error) {
	s.ops.With(s.backend, op).Inc()
	s.seconds.With(s.backend, op).ObserveSince(t0)
	switch {
	case errors.Is(err, ErrVersionConflict):
		s.conflicts.With(s.backend).Inc()
	case errors.Is(err, ErrFenced):
		s.fenced.With(s.backend).Inc()
	}
}

func (s *instrumentedStore) Put(ctx context.Context, dir, name string, data []byte) error {
	ctx, sp := obs.StartSpan(ctx, "store.put")
	t0 := time.Now()
	err := s.inner.Put(ctx, dir, name, data)
	s.observe(ctx, "put", t0, err)
	sp.End(err)
	return err
}

func (s *instrumentedStore) PutIf(ctx context.Context, dir, name string, data []byte, ifDirVersion uint64) error {
	ctx, sp := obs.StartSpan(ctx, "store.putif")
	t0 := time.Now()
	err := s.inner.PutIf(ctx, dir, name, data, ifDirVersion)
	s.observe(ctx, "putif", t0, err)
	sp.End(err)
	return err
}

func (s *instrumentedStore) PutFenced(ctx context.Context, dir, name string, data []byte, ifDirVersion, epoch uint64) error {
	ctx, sp := obs.StartSpan(ctx, "store.putfenced")
	t0 := time.Now()
	err := s.inner.PutFenced(ctx, dir, name, data, ifDirVersion, epoch)
	s.observe(ctx, "putfenced", t0, err)
	sp.End(err)
	return err
}

func (s *instrumentedStore) Delete(ctx context.Context, dir, name string) error {
	ctx, sp := obs.StartSpan(ctx, "store.delete")
	t0 := time.Now()
	err := s.inner.Delete(ctx, dir, name)
	s.observe(ctx, "delete", t0, err)
	sp.End(err)
	return err
}

func (s *instrumentedStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	ctx, sp := obs.StartSpan(ctx, "store.get")
	t0 := time.Now()
	data, err := s.inner.Get(ctx, dir, name)
	s.observe(ctx, "get", t0, err)
	sp.End(err)
	return data, err
}

func (s *instrumentedStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	ctx, sp := obs.StartSpan(ctx, "store.getversioned")
	t0 := time.Now()
	data, ver, err := s.inner.GetVersioned(ctx, dir, name)
	s.observe(ctx, "getversioned", t0, err)
	sp.End(err)
	return data, ver, err
}

// GetVersionedIf implements ConditionalGetter, delegating through the
// package helper so decoration does not hide the inner store's native
// conditional path. ErrNotModified is a cache revalidation hit, not a
// failure, so observe's error classification ignores it.
func (s *instrumentedStore) GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	ctx, sp := obs.StartSpan(ctx, "store.getversionedif")
	t0 := time.Now()
	data, ver, err := GetVersionedIf(ctx, s.inner, dir, name, ifVersion)
	s.observe(ctx, "getversionedif", t0, err)
	if errors.Is(err, ErrNotModified) {
		sp.End(nil)
	} else {
		sp.End(err)
	}
	return data, ver, err
}

func (s *instrumentedStore) List(ctx context.Context, dir string) ([]string, error) {
	ctx, sp := obs.StartSpan(ctx, "store.list")
	t0 := time.Now()
	names, err := s.inner.List(ctx, dir)
	s.observe(ctx, "list", t0, err)
	sp.End(err)
	return names, err
}

func (s *instrumentedStore) Version(ctx context.Context, dir string) (uint64, error) {
	t0 := time.Now()
	v, err := s.inner.Version(ctx, dir)
	s.observe(ctx, "version", t0, err)
	return v, err
}

func (s *instrumentedStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	t0 := time.Now()
	v, err := s.inner.Poll(ctx, dir, since)
	s.observe(ctx, "poll", t0, err)
	return v, err
}

// instrumentedCommitter is the decorator over a store with a native Commit.
type instrumentedCommitter struct {
	*instrumentedStore
	committer Committer
}

// Commit implements Committer: one `commit` op and one store.commit span per
// commit, and — through observe — one CAS-conflict or fence-rejection count
// per rejected one.
func (s *instrumentedCommitter) Commit(ctx context.Context, dir string, objs []Object, ifDirVersion, epoch uint64) (uint64, error) {
	ctx, sp := obs.StartSpan(ctx, "store.commit")
	t0 := time.Now()
	v, err := s.committer.Commit(ctx, dir, objs, ifDirVersion, epoch)
	s.observe(ctx, "commit", t0, err)
	sp.End(err)
	return v, err
}
