package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// adminStub is a fake shard admin endpoint with a scriptable response.
type adminStub struct {
	hits    atomic.Int64
	handler atomic.Pointer[http.HandlerFunc]
	srv     *httptest.Server
}

func newAdminStub(t *testing.T, h http.HandlerFunc) *adminStub {
	t.Helper()
	s := &adminStub{}
	s.handler.Store(&h)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		(*s.handler.Load())(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func okHandler(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, `{"epoch":1}`)
}

func fencedHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(storage.FencedHeader, "1")
	w.WriteHeader(http.StatusPreconditionFailed)
	fmt.Fprint(w, `{"epoch":1,"error":{"code":"fenced_epoch","msg":"stale epoch"}}`)
}

func notOwnerHandler(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusConflict)
	fmt.Fprint(w, `{"epoch":1,"error":{"code":"not_owner","msg":"lease elsewhere"}}`)
}

// publishRecord CAS-publishes a membership record into store, reading the
// current directory version first.
func publishRecord(t *testing.T, store storage.Store, rec *membership.Record) {
	t.Helper()
	ctx := context.Background()
	_, ver, err := membership.Load(ctx, store)
	if err != nil && !errors.Is(err, membership.ErrNoRecord) {
		t.Fatal(err)
	}
	if err := membership.Publish(ctx, store, rec, ver); err != nil {
		t.Fatal(err)
	}
}

// TestClusterClientFencedSelfRefresh: the client's routing view points a
// group's owner at a shard that answers 412 + X-Fenced (it operates under
// a superseded epoch). The client must reload the membership record itself
// and re-route to the current target — the recovery the routing gateway
// used to perform.
func TestClusterClientFencedSelfRefresh(t *testing.T) {
	ctx := context.Background()
	stale := newAdminStub(t, fencedHandler)
	fresh := newAdminStub(t, okHandler)

	store := storage.NewMemStore(storage.Latency{})
	members := []string{"shard-0", "shard-1"}
	publishRecord(t, store, &membership.Record{
		Epoch:   1,
		Members: members,
		Targets: map[string]string{"shard-0": stale.srv.URL, "shard-1": stale.srv.URL},
	})
	cc, err := NewClusterClient(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	cc.RetryInterval = 5 * time.Millisecond
	cc.RouteTimeout = 10 * time.Second

	// The truth moves on: epoch 2 routes both shards at the live endpoint.
	publishRecord(t, store, &membership.Record{
		Epoch:   2,
		Members: members,
		Targets: map[string]string{"shard-0": fresh.srv.URL, "shard-1": fresh.srv.URL},
	})

	if err := cc.AddUser(ctx, "team-x", "alice@example.com"); err != nil {
		t.Fatalf("op did not survive the fenced redirect: %v", err)
	}
	if stale.hits.Load() == 0 {
		t.Fatal("stale shard was never consulted — test wired wrong")
	}
	if fresh.hits.Load() == 0 {
		t.Fatal("op never reached the live shard")
	}
	st := cc.Stats()
	if st.FencedRefreshes == 0 {
		t.Fatal("fenced response did not trigger a membership refresh")
	}
	if st.Direct != 1 || st.Proxied != 0 {
		t.Fatalf("routes = %+v, want exactly one direct op", st)
	}
	if cc.Epoch() != 2 {
		t.Fatalf("client routes by epoch %d, want 2", cc.Epoch())
	}
}

// TestClusterClientAdoptsSameEpochTargets: the cluster publishes its boot
// record without URLs and re-publishes it at the SAME epoch once its
// shards listen. A client that read the first record must pick the URLs up
// and route directly, with no epoch bump to wait for.
func TestClusterClientAdoptsSameEpochTargets(t *testing.T) {
	ctx := context.Background()
	shard := newAdminStub(t, okHandler)
	store := storage.NewMemStore(storage.Latency{})
	publishRecord(t, store, &membership.Record{Epoch: 1, Members: []string{"shard-0"}})
	cc, err := NewClusterClient(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	cc.RetryInterval = 5 * time.Millisecond
	cc.RouteTimeout = 2 * time.Second
	publishRecord(t, store, &membership.Record{
		Epoch:   1,
		Members: []string{"shard-0"},
		Targets: map[string]string{"shard-0": shard.srv.URL},
	})
	if err := cc.AddUser(ctx, "team-x", "alice@example.com"); err != nil {
		t.Fatalf("op after the same-epoch target publish: %v", err)
	}
	if st := cc.Stats(); st.Direct != 1 || shard.hits.Load() != 1 {
		t.Fatalf("routes = %+v, shard hits %d: want one direct op", st, shard.hits.Load())
	}
}

// TestClusterClientNotOwnerFailover: the ring-order sweep survives a first
// candidate whose lease moved.
func TestClusterClientNotOwnerFailover(t *testing.T) {
	ctx := context.Background()
	wrong := newAdminStub(t, notOwnerHandler)
	right := newAdminStub(t, okHandler)

	store := storage.NewMemStore(storage.Latency{})
	rec := &membership.Record{
		Epoch:   1,
		Members: []string{"shard-0", "shard-1"},
	}
	m, err := rec.Membership()
	if err != nil {
		t.Fatal(err)
	}
	owners := m.Owners("team-x")
	rec.Targets = map[string]string{owners[0]: wrong.srv.URL, owners[1]: right.srv.URL}
	publishRecord(t, store, rec)

	cc, err := NewClusterClient(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	cc.RetryInterval = 5 * time.Millisecond
	if err := cc.AddUser(ctx, "team-x", "alice@example.com"); err != nil {
		t.Fatalf("failover op: %v", err)
	}
	if wrong.hits.Load() != 1 || right.hits.Load() != 1 {
		t.Fatalf("hits wrong=%d right=%d, want 1/1", wrong.hits.Load(), right.hits.Load())
	}
	if st := cc.Stats(); st.Direct != 1 {
		t.Fatalf("routes = %+v", st)
	}
}

// TestClusterClientHardErrorReturns: a real admin failure (bad request) is
// returned to the caller immediately — rerouting cannot fix it.
func TestClusterClientHardErrorReturns(t *testing.T) {
	ctx := context.Background()
	bad := newAdminStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"epoch":1,"error":{"code":"bad_request","msg":"no such group"}}`)
	})
	store := storage.NewMemStore(storage.Latency{})
	publishRecord(t, store, &membership.Record{
		Epoch:   1,
		Members: []string{"shard-0"},
		Targets: map[string]string{"shard-0": bad.srv.URL},
	})
	cc, err := NewClusterClient(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if err := cc.AddUser(ctx, "team-x", "alice@example.com"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want the 400 APIError back, got %v", err)
	}
	if bad.hits.Load() != 1 {
		t.Fatalf("hard error retried: %d hits", bad.hits.Load())
	}
}

// TestClusterClientFallbackOnNoRecord: a store with no membership record
// routes through the fallback router and counts the op as proxied.
func TestClusterClientFallbackOnNoRecord(t *testing.T) {
	ctx := context.Background()
	router := newAdminStub(t, okHandler)
	cc, err := NewClusterClient(ctx, storage.NewMemStore(storage.Latency{}), router.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.AddUser(ctx, "team-x", "alice@example.com"); err != nil {
		t.Fatal(err)
	}
	if router.hits.Load() != 1 {
		t.Fatalf("router hits = %d", router.hits.Load())
	}
	if st := cc.Stats(); st.Proxied != 1 || st.Direct != 0 {
		t.Fatalf("routes = %+v, want exactly one proxied op", st)
	}
}

// TestClusterClientEpochBumpEvictsCache: adopting a newer membership epoch
// through Watch wholesale-invalidates the attached record cache — the
// invalidation machinery is membership-driven, never TTL-driven.
func TestClusterClientEpochBumpEvictsCache(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shard := newAdminStub(t, okHandler)

	store := storage.NewMemStore(storage.Latency{})
	targets := map[string]string{"shard-0": shard.srv.URL}
	publishRecord(t, store, &membership.Record{Epoch: 1, Members: []string{"shard-0"}, Targets: targets})

	cc, err := NewClusterClient(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRecordCache(store)
	cc.Cache = cache
	go cc.Watch(ctx)

	// Prime the cache with a group record.
	if err := store.Put(ctx, "team-x", "p0", []byte("record")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Get(ctx, "team-x", "p0"); err != nil {
		t.Fatal(err)
	}

	publishRecord(t, store, &membership.Record{Epoch: 2, Members: []string{"shard-0"}, Targets: targets})
	deadline := time.Now().Add(10 * time.Second)
	for cc.Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watch never adopted epoch 2 (at %d)", cc.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := cache.Stats().Evictions; n != 1 {
		t.Fatalf("epoch bump evicted %d entries, want 1", n)
	}
	// Next read goes back upstream.
	before := store.Stats().Gets
	if _, _, err := cache.Get(ctx, "team-x", "p0"); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Gets; got != before+1 {
		t.Fatalf("post-bump read cost %d GETs, want 1", got-before)
	}
}

// TestClusterClientWireFormat: a single-user add goes out as a batch of one
// on the add-batch route, in a body the shard's strict admin.OpRequest
// decoder accepts.
func TestClusterClientWireFormat(t *testing.T) {
	ctx := context.Background()
	var got admin.OpRequest
	stub := newAdminStub(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/admin/add-batch" {
			t.Errorf("path = %s", r.URL.Path)
		}
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Error(err)
		}
		w.WriteHeader(http.StatusOK)
	})
	store := storage.NewMemStore(storage.Latency{})
	publishRecord(t, store, &membership.Record{
		Epoch:   1,
		Members: []string{"shard-0"},
		Targets: map[string]string{"shard-0": stub.srv.URL},
	})
	cc, err := NewClusterClient(ctx, store, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.AddUser(ctx, "team-x", "alice@example.com"); err != nil {
		t.Fatal(err)
	}
	if got.Group != "team-x" || len(got.Users) != 1 || got.Users[0] != "alice@example.com" || got.Members != nil {
		t.Fatalf("wire request = %+v", got)
	}
}
