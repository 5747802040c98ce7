package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the error produced by a FaultStore-triggered failure.
var ErrInjected = errors.New("storage: injected fault")

// FaultStore wraps a Store and fails operations on demand — test
// infrastructure for exercising the system's behaviour under cloud outages
// and partial-update scenarios (e.g. an administrator crashing mid-apply).
//
// FaultStore deliberately does NOT forward Commit, even over a Committer: a
// storage.Commit through it runs the chain of conditional puts, so the
// every-n-th-put injectors keep tearing an apply partway and every torn-apply
// and fence fault test keeps exercising the chain.
type FaultStore struct {
	Inner Store

	mu sync.Mutex
	// failEveryPut fails every n-th Put when > 0.
	failEveryPut int
	putCount     int
	// failEveryPutIf injects ErrVersionConflict on every n-th conditional
	// put (PutIf or PutFenced) when > 0 — deterministic exercise for CAS
	// retry/abort paths.
	failEveryPutIf int
	putIfCount     int
	// failEveryPutFenced injects ErrFenced on every n-th PutFenced when
	// > 0 — deterministic exercise for zombie-rejection paths.
	failEveryPutFenced int
	putFencedCount     int
	// failEveryGet fails every n-th read (Get/GetVersioned/GetVersionedIf)
	// when > 0 — deterministic exercise for client retry/fallback paths,
	// symmetric with the conditional-put injectors.
	failEveryGet int
	getCount     int
	// failGets / failPuts force all reads / mutations to fail.
	failGets bool
	failPuts bool
}

var _ Store = (*FaultStore)(nil)

// NewFaultStore wraps inner with fault injection disabled.
func NewFaultStore(inner Store) *FaultStore { return &FaultStore{Inner: inner} }

// FailEveryPut makes every n-th Put fail (0 disables).
func (f *FaultStore) FailEveryPut(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failEveryPut = n
	f.putCount = 0
}

// FailEveryPutIf makes every n-th PutIf fail with ErrVersionConflict
// (0 disables), simulating a concurrent writer winning the CAS race.
func (f *FaultStore) FailEveryPutIf(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failEveryPutIf = n
	f.putIfCount = 0
}

// FailEveryPutFenced makes every n-th PutFenced fail with ErrFenced
// (0 disables), simulating a newer membership epoch having fenced this
// writer out.
func (f *FaultStore) FailEveryPutFenced(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failEveryPutFenced = n
	f.putFencedCount = 0
}

// FailEveryGet makes every n-th object read (Get, GetVersioned or
// GetVersionedIf) fail with ErrInjected (0 disables), simulating an
// intermittently flaky cloud read path.
func (f *FaultStore) FailEveryGet(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failEveryGet = n
	f.getCount = 0
}

// SetFailGets toggles failing all reads (Get/List/Version/Poll).
func (f *FaultStore) SetFailGets(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failGets = v
}

// SetFailPuts toggles failing all mutations.
func (f *FaultStore) SetFailPuts(v bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failPuts = v
}

func (f *FaultStore) putShouldFail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPuts {
		return true
	}
	if f.failEveryPut <= 0 {
		return false
	}
	f.putCount++
	return f.putCount%f.failEveryPut == 0
}

func (f *FaultStore) getShouldFail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failGets
}

// objectGetShouldFail combines the blanket read switch with the every-n-th
// object-read injector (the latter only counts object fetches, not
// List/Version/Poll, so a test can meter exactly the record reads a client
// cache issues).
func (f *FaultStore) objectGetShouldFail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failGets {
		return true
	}
	if f.failEveryGet <= 0 {
		return false
	}
	f.getCount++
	return f.getCount%f.failEveryGet == 0
}

// Put implements Store.
func (f *FaultStore) Put(ctx context.Context, dir, name string, data []byte) error {
	if f.putShouldFail() {
		return ErrInjected
	}
	return f.Inner.Put(ctx, dir, name, data)
}

// PutIf implements Store. Injected conflicts (FailEveryPutIf) surface as
// ErrVersionConflict without reaching the inner store; injected mutation
// faults (SetFailPuts/FailEveryPut) surface as ErrInjected.
func (f *FaultStore) PutIf(ctx context.Context, dir, name string, data []byte, ifDirVersion uint64) error {
	if f.putIfShouldConflict() {
		return fmt.Errorf("%w: injected on %s", ErrVersionConflict, dir)
	}
	if f.putShouldFail() {
		return ErrInjected
	}
	return f.Inner.PutIf(ctx, dir, name, data, ifDirVersion)
}

func (f *FaultStore) putIfShouldConflict() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failEveryPutIf <= 0 {
		return false
	}
	f.putIfCount++
	return f.putIfCount%f.failEveryPutIf == 0
}

// PutFenced implements Store. Injected fences (FailEveryPutFenced) surface
// as ErrFenced; injected conflicts and mutation faults behave as for PutIf.
func (f *FaultStore) PutFenced(ctx context.Context, dir, name string, data []byte, ifDirVersion, epoch uint64) error {
	if f.putFencedShouldFail() {
		return fmt.Errorf("%w: injected on %s", ErrFenced, dir)
	}
	if f.putIfShouldConflict() {
		return fmt.Errorf("%w: injected on %s", ErrVersionConflict, dir)
	}
	if f.putShouldFail() {
		return ErrInjected
	}
	return f.Inner.PutFenced(ctx, dir, name, data, ifDirVersion, epoch)
}

func (f *FaultStore) putFencedShouldFail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failEveryPutFenced <= 0 {
		return false
	}
	f.putFencedCount++
	return f.putFencedCount%f.failEveryPutFenced == 0
}

// Delete implements Store.
func (f *FaultStore) Delete(ctx context.Context, dir, name string) error {
	if f.putShouldFail() {
		return ErrInjected
	}
	return f.Inner.Delete(ctx, dir, name)
}

// Get implements Store.
func (f *FaultStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	if f.objectGetShouldFail() {
		return nil, ErrInjected
	}
	return f.Inner.Get(ctx, dir, name)
}

// GetVersioned implements Store.
func (f *FaultStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	if f.objectGetShouldFail() {
		return nil, 0, ErrInjected
	}
	return f.Inner.GetVersioned(ctx, dir, name)
}

// GetVersionedIf implements ConditionalGetter, delegating through the
// package helper so a wrapped backend without the optional interface still
// answers correctly.
func (f *FaultStore) GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	if f.objectGetShouldFail() {
		return nil, 0, ErrInjected
	}
	return GetVersionedIf(ctx, f.Inner, dir, name, ifVersion)
}

// List implements Store.
func (f *FaultStore) List(ctx context.Context, dir string) ([]string, error) {
	if f.getShouldFail() {
		return nil, ErrInjected
	}
	return f.Inner.List(ctx, dir)
}

// Version implements Store.
func (f *FaultStore) Version(ctx context.Context, dir string) (uint64, error) {
	if f.getShouldFail() {
		return 0, ErrInjected
	}
	return f.Inner.Version(ctx, dir)
}

// Poll implements Store.
func (f *FaultStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	if f.getShouldFail() {
		return 0, ErrInjected
	}
	return f.Inner.Poll(ctx, dir, since)
}
