package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/membership"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// shardReply is one answer read straight off a shard's own listener.
type shardReply struct {
	code   int
	header http.Header
	env    admin.Envelope
}

// callShard sends one admin request to a shard (a GET when body is empty)
// and decodes the envelope of its answer, if it carries one.
func (tc *testCluster) callShard(t *testing.T, s *Shard, path, body string) shardReply {
	t.Helper()
	tc.mu.Lock()
	url := tc.srvs[s.ID].URL
	tc.mu.Unlock()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url + path)
	} else {
		resp, err = http.Post(url+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := shardReply{code: resp.StatusCode, header: resp.Header}
	_ = json.NewDecoder(resp.Body).Decode(&r.env)
	return r
}

// expect fails the test unless the reply has the given status and envelope
// error code, stamped with the given epoch.
func (r shardReply) expect(t *testing.T, what string, code int, envCode string, epoch uint64) {
	t.Helper()
	if r.code != code {
		t.Fatalf("%s: status %d, want %d", what, r.code, code)
	}
	if r.env.Error == nil || r.env.Error.Code != envCode {
		t.Fatalf("%s: envelope %+v, want code %q", what, r.env, envCode)
	}
	if r.env.Epoch != epoch {
		t.Fatalf("%s: envelope stamped epoch %d, want %d", what, r.env.Epoch, epoch)
	}
}

var errInjectedCommit = errors.New("injected commit failure")

// faultStore is a pollGatedStore whose next commit to one armed directory
// fails after running a hook — a store fault at a chosen moment.
type faultStore struct {
	*pollGatedStore
	mu     sync.Mutex
	dir    string
	onFail func()
}

func (s *faultStore) arm(dir string, onFail func()) {
	s.mu.Lock()
	s.dir, s.onFail = dir, onFail
	s.mu.Unlock()
}

func (s *faultStore) Commit(ctx context.Context, dir string, objs []storage.Object, ifDirVersion, epoch uint64) (uint64, error) {
	s.mu.Lock()
	armed := s.dir != "" && dir == s.dir
	onFail := s.onFail
	if armed {
		s.dir, s.onFail = "", nil
	}
	s.mu.Unlock()
	if armed {
		onFail()
		return 0, errInjectedCommit
	}
	return s.MemStore.Commit(ctx, dir, objs, ifDirVersion, epoch)
}

// TestShardAnswersAdminErrors drives a shard's own listener through the four
// answers a failed admin op can get: 409 conflict for an invalid op on the
// owner, 503 not_owner from a shard that does not hold the lease, 412 with
// X-Fenced for a commit fenced by a newer published membership (and the
// fenced shard refreshes the cluster's view), and 503 not_owner — not 409 —
// for an op that fails after its lease has lapsed.
func TestShardAnswersAdminErrors(t *testing.T) {
	store := &faultStore{pollGatedStore: &pollGatedStore{MemStore: storage.NewMemStore(storage.Latency{}), polling: make(chan struct{})}}
	clk := newFakeClock()
	const ttl = time.Minute
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: ttl, Seed: 7, Store: store, now: clk.now})
	c := tc.c
	ctx := context.Background()
	<-store.polling // the watch loop has read the boot record and waits

	const g = "answers"
	users := groupUsers(g, 3)
	if err := tc.api.CreateGroup(ctx, g, users); err != nil {
		t.Fatal(err)
	}
	owner := c.Shard(c.Ring().Owner(g))
	var other *Shard
	for _, s := range c.Shards() {
		if s != owner {
			other = s
		}
	}
	n := owner.Epoch()

	// A duplicate add on the owner is the op's own error.
	tc.callShard(t, owner, "/admin/add-batch", `{"group":"`+g+`","users":["`+users[0]+`"]}`).
		expect(t, "duplicate add on the owner", http.StatusConflict, admin.CodeConflict, n)

	// A shard that does not hold the lease sends the caller elsewhere.
	r := tc.callShard(t, other, "/admin/add-batch", `{"group":"`+g+`","users":["elsewhere@x"]}`)
	r.expect(t, "add on a non-owner", http.StatusServiceUnavailable, admin.CodeNotOwner, n)
	if r.header.Get("Retry-After") == "" {
		t.Fatal("non-owner answer carries no Retry-After")
	}

	// Another writer publishes epoch N+1 and the group's next owner commits
	// under it, while propagation to this process is held.
	c.changeMu.Lock()
	locked := true
	defer func() {
		if locked {
			c.changeMu.Unlock()
		}
	}()
	rec, ver, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	next, err := membership.At(rec.Epoch+1, rec.Members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := membership.Publish(ctx, store, membership.RecordOf(next, tc.targetSnapshot()), ver); err != nil {
		t.Fatal(err)
	}
	names, err := store.List(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	blob, dirVer, err := store.GetVersioned(ctx, g, names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.MemStore.PutFenced(ctx, g, names[0], blob, dirVer, next.Epoch); err != nil {
		t.Fatal(err)
	}
	r = tc.callShard(t, owner, "/admin/add-batch", `{"group":"`+g+`","users":["fenced@x"]}`)
	r.expect(t, "add fenced by a newer epoch", http.StatusPreconditionFailed, admin.CodeFencedEpoch, n)
	if r.header.Get(storage.FencedHeader) == "" {
		t.Fatal("fenced answer carries no X-Fenced")
	}
	waitUntil(t, 5*time.Second, "the fenced shard to refresh the cluster's view", func() bool {
		return c.Epoch() == next.Epoch
	})
	c.changeMu.Unlock()
	locked = false
	waitUntil(t, 10*time.Second, "the shards to apply the new epoch", func() bool {
		return owner.Epoch() == next.Epoch && other.Epoch() == next.Epoch
	})

	// The owner rebuilds the group its fenced op dropped; then a commit
	// fails after the lease has lapsed, and the caller is sent to retry.
	if r := tc.callShard(t, owner, "/admin/add-batch", `{"group":"`+g+`","users":["healed@x"]}`); r.code != http.StatusNoContent {
		t.Fatalf("add after the epoch change: status %d %+v", r.code, r.env)
	}
	store.arm(g, func() { clk.advance(2 * ttl) })
	r = tc.callShard(t, owner, "/admin/add-batch", `{"group":"`+g+`","users":["lapsed@x"]}`)
	r.expect(t, "add failing after its lease lapsed", http.StatusServiceUnavailable, admin.CodeNotOwner, next.Epoch)
	if r.header.Get("Retry-After") == "" {
		t.Fatal("lapsed-lease answer carries no Retry-After")
	}
}

// TestShardEnvelopesCarryItsAppliedEpoch: with the cluster's view one epoch
// ahead of a shard (propagation held), the shard's error envelopes carry the
// epoch it operates and fences its commits under, not the view's.
func TestShardEnvelopesCarryItsAppliedEpoch(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 2, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	c := tc.c
	ctx := context.Background()

	const g = "stamped"
	users := groupUsers(g, 3)
	if err := tc.api.CreateGroup(ctx, g, users); err != nil {
		t.Fatal(err)
	}
	owner := c.Shard(c.Ring().Owner(g))
	applied := owner.Epoch()

	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	rec, ver, err := membership.Load(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	next, err := membership.At(rec.Epoch+1, rec.Members, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := membership.Publish(ctx, store, membership.RecordOf(next, tc.targetSnapshot()), ver); err != nil {
		t.Fatal(err)
	}
	if err := c.view.Reload(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != next.Epoch || owner.Epoch() != applied {
		t.Fatalf("view at %d, shard at %d: want the view one epoch ahead of the shard's %d", c.Epoch(), owner.Epoch(), applied)
	}

	tc.callShard(t, owner, "/admin/add-batch", `{"group":"`+g+`","users":["`+users[0]+`"]}`).
		expect(t, "duplicate add", http.StatusConflict, admin.CodeConflict, applied)
	tc.callShard(t, owner, "/admin/members?group="+g+"&limit=0", "").
		expect(t, "members with a bad limit", http.StatusBadRequest, admin.CodeBadRequest, applied)
}

// TestShardErrorsAreTypedEnvelopes: the shard's own refusals — a malformed
// body, a missing group, an add naming no user or the empty identity, and
// an ownership gate failing on the store — answer with the typed envelope,
// so a ClusterClient's *APIError carries their code and the shard's epoch.
func TestShardErrorsAreTypedEnvelopes(t *testing.T) {
	store := storage.NewMemStore(storage.Latency{})
	tc := startCluster(t, Options{Shards: 1, Capacity: 4, LeaseTTL: 5 * time.Second, Seed: 7, Store: store})
	ctx := context.Background()
	shard := tc.c.Shards()[0]
	if err := tc.api.CreateGroup(ctx, "g", groupUsers("g", 2)); err != nil {
		t.Fatal(err)
	}
	// An unreadable lease: the gate cannot tell who owns "broken".
	if err := store.Put(ctx, leaseDir("broken"), leaseObject, []byte("{")); err != nil {
		t.Fatal(err)
	}
	epoch := shard.Epoch()
	if epoch == 0 {
		t.Fatal("shard operates under epoch 0")
	}
	tc.callShard(t, shard, "/admin/rekey", `{"group":`).
		expect(t, "malformed body", http.StatusBadRequest, admin.CodeBadRequest, epoch)

	tc.mu.Lock()
	cc, err := client.NewClusterClient(ctx, nil, tc.srvs[shard.ID].URL)
	tc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name   string
		run    func() error
		status int
		code   string
	}{
		{"missing group", func() error { return cc.RekeyGroup(ctx, "") }, http.StatusBadRequest, admin.CodeBadRequest},
		{"no users", func() error { return cc.AddUsers(ctx, "g", nil) }, http.StatusBadRequest, admin.CodeBadRequest},
		{"empty identity", func() error { return cc.AddUser(ctx, "g", "") }, http.StatusBadRequest, admin.CodeBadRequest},
		{"gate failing on the store", func() error { return cc.RekeyGroup(ctx, "broken") }, http.StatusInternalServerError, admin.CodeInternal},
	} {
		var apiErr *client.APIError
		if err := op.run(); !errors.As(err, &apiErr) || apiErr.StatusCode != op.status || apiErr.Code != op.code || apiErr.Epoch != epoch {
			t.Errorf("%s: %v, want a %d %s APIError at epoch %d", op.name, err, op.status, op.code, epoch)
		}
	}
	members, err := shard.Admin.Manager().Members("g")
	if err != nil || len(members) != 2 {
		t.Fatalf("members after the refusals: %v %v", members, err)
	}
}
