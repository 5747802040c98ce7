package membership

import (
	"context"
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

func mustAt(t *testing.T, epoch uint64, members ...string) *Membership {
	t.Helper()
	m, err := At(epoch, members, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestViewAdoptionIsEpochMonotone: a newer epoch replaces the membership
// and runs OnAdopt; an older or equal one never replaces it; the first
// adoption is not an advance.
func TestViewAdoptionIsEpochMonotone(t *testing.T) {
	v := NewView(nil)
	var adopted []uint64
	v.OnAdopt = func(m *Membership) { adopted = append(adopted, m.Epoch) }
	m1, m2 := mustAt(t, 1, "a"), mustAt(t, 2, "a", "b")
	v.Adopt(m1, nil)
	v.Adopt(m2, nil)
	v.Adopt(m1, nil)
	v.Adopt(mustAt(t, 2, "z"), nil)
	if v.Membership() != m2 {
		t.Fatalf("view holds epoch %d %v, want the first epoch-2 membership", v.Membership().Epoch, v.Membership().Members())
	}
	if !slices.Equal(adopted, []uint64{2}) {
		t.Fatalf("OnAdopt ran for %v, want [2]", adopted)
	}
}

// TestViewEpochBumpClearsHealthCache: a newer epoch drops every cached down
// verdict — a membership change is when liveness verdicts stop being
// trustworthy (shards join, drain, restart) — while a same-epoch URL update
// keeps the verdicts of shards whose URL did not change.
func TestViewEpochBumpClearsHealthCache(t *testing.T) {
	v := NewView(nil)
	targets := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	v.Adopt(mustAt(t, 1, "a", "b", "c"), targets)
	v.markDown("b", time.Hour)
	v.Adopt(mustAt(t, 1, "a", "b", "c"), targets)
	if live := v.live([]string{"a", "b", "c"}); !slices.Equal(live, []string{"a", "c"}) {
		t.Fatalf("same-epoch adoption cleared the health cache: live = %v", live)
	}
	v.Adopt(mustAt(t, 2, "a", "b", "c", "d"), map[string]string{"d": "http://d"})
	if live := v.live([]string{"a", "b", "c", "d"}); len(live) != 4 {
		t.Fatalf("health cache survived the epoch bump: live = %v", live)
	}
}

// TestViewSameEpochRecordUpdatesURLs is the bootstrap window: the cluster
// publishes its first record without URLs and re-publishes it at the same
// epoch with them. The view takes the URLs without treating the record as
// a membership change.
func TestViewSameEpochRecordUpdatesURLs(t *testing.T) {
	v := NewView(nil)
	adopts := 0
	v.OnAdopt = func(*Membership) { adopts++ }
	v.adoptRecord(&Record{Epoch: 1, Members: []string{"a", "b"}})
	m := v.Membership()
	v.adoptRecord(&Record{Epoch: 1, Members: []string{"a", "b"}, Targets: map[string]string{"a": "http://a", "b": "http://b"}})
	got, targets := v.Snapshot()
	if got != m || adopts != 0 {
		t.Fatalf("same-epoch record replaced the membership (adopts %d)", adopts)
	}
	if !maps.Equal(targets, map[string]string{"a": "http://a", "b": "http://b"}) {
		t.Fatalf("targets after same-epoch re-publish = %v", targets)
	}
}

// TestViewRecordURLsOverrideEarlier: a record's URLs override earlier ones,
// and a shard the record gives no URL keeps the one it had.
func TestViewRecordURLsOverrideEarlier(t *testing.T) {
	v := NewView(nil)
	v.adoptRecord(&Record{Epoch: 1, Members: []string{"a", "b"}, Targets: map[string]string{"a": "http://a", "b": "http://b1"}})
	v.adoptRecord(&Record{Epoch: 2, Members: []string{"a", "b", "c"}, Targets: map[string]string{"b": "http://b2", "c": "http://c"}})
	_, targets := v.Snapshot()
	want := map[string]string{"a": "http://a", "b": "http://b2", "c": "http://c"}
	if !maps.Equal(targets, want) {
		t.Fatalf("targets = %v, want %v", targets, want)
	}
}

// TestViewRefreshIsRateLimited: a burst of refreshes costs one store read.
func TestViewRefreshIsRateLimited(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemStore(storage.Latency{})
	publish(t, store, &Record{Epoch: 1, Members: []string{"a"}})
	v := NewView(store)
	before := store.Stats().Gets
	for i := 0; i < 5; i++ {
		v.Refresh(ctx)
	}
	if got := store.Stats().Gets - before; got != 1 {
		t.Fatalf("5 refreshes cost %d reads, want 1", got)
	}
	if v.Membership() == nil || v.Membership().Epoch != 1 {
		t.Fatal("refresh adopted nothing")
	}
}

// gatedGetStore is a MemStore whose versioned reads each wait for release;
// entered receives one value per read that started.
type gatedGetStore struct {
	*storage.MemStore
	entered chan struct{}
	release chan struct{}
}

func (s *gatedGetStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	s.entered <- struct{}{}
	<-s.release
	return s.MemStore.GetVersioned(ctx, dir, name)
}

// TestViewRefreshWaitsForTheReloadInFlight: a refresh inside the rate-limit
// window does not skip a reload that is still reading — a router sharing the
// view with shards would otherwise sweep the stale owner again — but waits
// for it and sees what it adopted, still at one store read. A cancelled
// context ends the wait.
func TestViewRefreshWaitsForTheReloadInFlight(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemStore(storage.Latency{})
	publish(t, mem, &Record{Epoch: 1, Members: []string{"a"}})
	store := &gatedGetStore{MemStore: mem, entered: make(chan struct{}, 2), release: make(chan struct{})}
	v := NewView(store)
	go v.Refresh(ctx)
	<-store.entered

	second := make(chan struct{})
	go func() {
		v.Refresh(ctx)
		close(second)
	}()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	v.Refresh(cancelled) // returns: its context is done
	select {
	case <-second:
		t.Fatal("a refresh returned while the window's reload was still reading")
	case <-time.After(50 * time.Millisecond):
	}
	before := mem.Stats().Gets
	close(store.release)
	<-second
	if m := v.Membership(); m == nil || m.Epoch != 1 {
		t.Fatal("the waiting refresh returned before the reload adopted the record")
	}
	if got := mem.Stats().Gets - before; got != 1 {
		t.Fatalf("three refreshes cost %d reads, want 1", got)
	}
}

func TestViewHealthCacheSkipsDownShards(t *testing.T) {
	v := NewView(nil)
	var skipped []string
	v.OnSkip = func(id string) { skipped = append(skipped, id) }
	v.markDown("b", time.Hour)
	if live := v.live([]string{"a", "b", "c"}); !slices.Equal(live, []string{"a", "c"}) {
		t.Fatalf("live = %v, want [a c]", live)
	}
	if !slices.Equal(skipped, []string{"b"}) {
		t.Fatalf("skipped = %v, want [b]", skipped)
	}
	// A successful probe clears the verdict.
	v.markUp("b")
	if live := v.live([]string{"a", "b", "c"}); len(live) != 3 {
		t.Fatalf("live after markUp = %v", live)
	}
	// With EVERY candidate cached down, the cache is ignored — a sweep must
	// always probe something.
	for _, id := range []string{"a", "b", "c"} {
		v.markDown(id, time.Hour)
	}
	if live := v.live([]string{"a", "b", "c"}); len(live) != 3 {
		t.Fatalf("live under full outage = %v, want all candidates", live)
	}
}

func TestViewHealthCacheExpires(t *testing.T) {
	v := NewView(nil)
	v.markDown("b", time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if live := v.live([]string{"a", "b"}); len(live) != 2 {
		t.Fatalf("verdict survived its TTL: %v", live)
	}
}

// TestSweepSkipsCachedDownUnlessAllDown: an unreachable shard is skipped by
// the next sweep, but a sweep whose every candidate is down probes them all.
func TestSweepSkipsCachedDownUnlessAllDown(t *testing.T) {
	ctx := context.Background()
	v := NewView(nil)
	v.adoptRecord(&Record{Epoch: 1, Members: []string{"a", "b"}, Targets: map[string]string{"a": "http://a", "b": "http://b"}})
	pace := Pace{RouteTimeout: 50 * time.Millisecond, RetryInterval: time.Millisecond, HealthTTL: time.Hour}
	var tried []string
	down := map[string]bool{"a": true}
	try := func(_ context.Context, c Candidate) (Verdict, error) {
		tried = append(tried, c.ID)
		if down[c.ID] {
			return Unreachable, errors.New("connection refused")
		}
		return Served, nil
	}
	if err := v.Sweep(ctx, "", pace, try); err != nil {
		t.Fatal(err)
	}
	tried = nil
	if err := v.Sweep(ctx, "", pace, try); err != nil || !slices.Equal(tried, []string{"b"}) {
		t.Fatalf("second sweep tried %v (%v), want [b]", tried, err)
	}
	down["b"] = true
	tried = nil
	if err := v.Sweep(ctx, "", pace, try); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("sweep over dead shards: %v, want ErrNoRoute", err)
	}
	if !slices.Contains(tried, "a") {
		t.Fatalf("full outage never re-probed the cached-down shard: %v", tried)
	}
}

// TestSweepFencedRefreshesAndResweeps: a fenced answer makes the view
// re-read the record and sweep again from the refreshed owner's URL.
func TestSweepFencedRefreshesAndResweeps(t *testing.T) {
	ctx := context.Background()
	store := storage.NewMemStore(storage.Latency{})
	publish(t, store, &Record{Epoch: 1, Members: []string{"a", "b"}, Targets: map[string]string{"a": "http://old-a", "b": "http://old-b"}})
	v := NewView(store)
	if err := v.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	publish(t, store, &Record{Epoch: 2, Members: []string{"a", "b"}, Targets: map[string]string{"a": "http://new-a", "b": "http://new-b"}})
	var tried []string
	err := v.Sweep(ctx, "g", Pace{RetryInterval: time.Millisecond}, func(_ context.Context, c Candidate) (Verdict, error) {
		tried = append(tried, c.URL)
		if c.URL == "http://old-a" || c.URL == "http://old-b" {
			return Fenced, errors.New("fenced")
		}
		return Served, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tried) != 2 || v.Membership().Epoch != 2 {
		t.Fatalf("tried %v at epoch %d: want one fenced try, then the refreshed owner", tried, v.Membership().Epoch)
	}
	if owner := v.Membership().Owner("g"); tried[1] != "http://new-"+owner {
		t.Fatalf("re-sweep started at %s, want the owner %s", tried[1], owner)
	}
}

// TestSweepEndsAtDeadline: a sweep nobody serves ends at RouteTimeout with
// ErrNoRoute wrapping the last failure; a view with no membership fails at
// once.
func TestSweepEndsAtDeadline(t *testing.T) {
	ctx := context.Background()
	notOwner := errors.New("not owner")
	try := func(context.Context, Candidate) (Verdict, error) { return NotOwner, notOwner }
	if err := NewView(nil).Sweep(ctx, "g", Pace{}, try); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("sweep without a membership: %v, want ErrNoRoute", err)
	}
	v := NewView(nil)
	v.adoptRecord(&Record{Epoch: 1, Members: []string{"a"}, Targets: map[string]string{"a": "http://a"}})
	t0 := time.Now()
	err := v.Sweep(ctx, "g", Pace{RouteTimeout: 50 * time.Millisecond, RetryInterval: 5 * time.Millisecond}, try)
	if !errors.Is(err, ErrNoRoute) || !errors.Is(err, notOwner) {
		t.Fatalf("sweep past its deadline: %v", err)
	}
	if d := time.Since(t0); d < 50*time.Millisecond || d > 5*time.Second {
		t.Fatalf("sweep ended after %v, want its 50ms RouteTimeout", d)
	}
}
