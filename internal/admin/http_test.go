package admin_test

import (
	"context"
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/attest"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/pki"
)

// The admin HTTP API is served by a cluster shard; these tests drive the
// wire contract through the single-admin deployment, a one-shard cluster.

// oneShard starts a one-shard cluster of partition capacity 3 and returns it
// with its shard and the shard's own URL.
func oneShard(t *testing.T) (*cluster.Cluster, *cluster.Shard, string) {
	t.Helper()
	c, err := cluster.New(cluster.Options{Shards: 1, Capacity: 3, LeaseTTL: 5 * time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	s := c.Shards()[0]
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return c, s, srv.URL
}

func users(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%03d@example.com", i)
	}
	return out
}

func TestServiceInfoAndAdminOps(t *testing.T) {
	_, s, url := oneShard(t)

	resp, err := http.Get(url + "/info")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/info: %d", resp.StatusCode)
	}

	post := func(path, body string) int {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/admin/create", `{"group":"g","members":["a@x","b@x"]}`); code != 204 {
		t.Fatalf("create: %d", code)
	}
	if code := post("/admin/add", `{"group":"g","user":"c@x"}`); code != 204 {
		t.Fatalf("add: %d", code)
	}
	if code := post("/admin/remove", `{"group":"g","user":"a@x"}`); code != 204 {
		t.Fatalf("remove: %d", code)
	}
	if code := post("/admin/rekey", `{"group":"g"}`); code != 204 {
		t.Fatalf("rekey: %d", code)
	}
	// Errors surface as 409.
	if code := post("/admin/remove", `{"group":"g","user":"ghost@x"}`); code != 409 {
		t.Fatalf("bad remove: %d", code)
	}
	if code := post("/admin/create", `{}`); code != 400 {
		t.Fatalf("missing group: %d", code)
	}
	members, err := s.Admin.Manager().Members("g")
	if err != nil || len(members) != 2 {
		t.Fatalf("members after ops: %v %v", members, err)
	}
}

func TestBatchRoutesOverHTTP(t *testing.T) {
	_, s, url := oneShard(t)
	api := client.NewAdminAPI(nil, url)
	ctx := context.Background()
	if err := api.CreateGroup(ctx, "g", users(4)); err != nil {
		t.Fatal(err)
	}
	if err := api.AddUsers(ctx, "g", []string{"a@x", "b@x"}); err != nil {
		t.Fatal(err)
	}
	if err := api.RemoveUsers(ctx, "g", []string{"a@x", users(4)[0]}); err != nil {
		t.Fatal(err)
	}
	members, err := s.Admin.Manager().Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 { // 4 + 2 − 2
		t.Fatalf("members after batch routes = %v", members)
	}
	// A batch touching an unknown member maps to an error status.
	if err := api.RemoveUsers(ctx, "g", []string{"ghost@x"}); err == nil {
		t.Fatal("batch removal of unknown member accepted over HTTP")
	}
	// Unknown routes 404.
	resp, err := http.Post(url+"/admin/bogus", "application/json", strings.NewReader(`{"group":"g"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown admin route: %d", resp.StatusCode)
	}
}

// TestAdminErrorsCarryEnvelope: admin-operation failures answer with the
// typed JSON envelope — code, message, and the serving epoch — and
// client.AdminAPI surfaces them as *APIError.
func TestAdminErrorsCarryEnvelope(t *testing.T) {
	c, s, url := oneShard(t)
	// Six membership changes bring the shard to epoch 7.
	for c.Epoch() < 7 {
		if _, err := c.ApplyMembership(context.Background(), []string{s.ID}); err != nil {
			t.Fatal(err)
		}
	}

	// Removing a user from a group that does not exist is a genuine
	// conflict: the envelope must say so, typed.
	resp, err := http.Post(url+"/admin/remove", "application/json",
		strings.NewReader(`{"group":"nope","user":"u"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	var env admin.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if env.Status != "error" || env.Error == nil || env.Error.Code != admin.CodeConflict {
		t.Fatalf("envelope = %+v, want status=error code=%s", env, admin.CodeConflict)
	}
	if env.Epoch != 7 {
		t.Fatalf("envelope epoch = %d, want 7", env.Epoch)
	}

	// The typed client decodes the same envelope into an *APIError.
	api := client.NewAdminAPI(nil, url)
	opErr := api.RemoveUser(t.Context(), "nope", "u")
	var apiErr *client.APIError
	if !errors.As(opErr, &apiErr) {
		t.Fatalf("error %T is not *client.APIError: %v", opErr, opErr)
	}
	if apiErr.Code != admin.CodeConflict || apiErr.Epoch != 7 || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("APIError = %+v", apiErr)
	}
	if errors.Is(opErr, client.ErrFencedEpoch) || errors.Is(opErr, client.ErrNotOwner) {
		t.Fatal("a plain conflict matched a routing sentinel")
	}
}

// TestMembersPagingHTTP walks GET /admin/members with a small page size and
// must reassemble exactly the manager's member list; the AdminAPI client
// does the same through its cursor helper.
func TestMembersPagingHTTP(t *testing.T) {
	_, s, url := oneShard(t)
	api := client.NewAdminAPI(http.DefaultClient, url)
	ctx := context.Background()
	if err := api.CreateGroup(ctx, "g", users(10)); err != nil {
		t.Fatal(err)
	}

	// Page by hand with limit 3: ceil(10/3) = 4 pages.
	var walked []string
	after := ""
	pages := 0
	for {
		page, next, err := api.Members(ctx, "g", after, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > 3 {
			t.Fatalf("page of %d exceeds limit 3", len(page))
		}
		walked = append(walked, page...)
		pages++
		if next == "" {
			break
		}
		after = next
	}
	if pages < 4 {
		t.Fatalf("10 members at limit 3 walked in %d pages", pages)
	}
	want, err := s.Admin.Manager().Members("g")
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(walked) {
		t.Fatal("paged walk out of order")
	}
	if len(walked) != len(want) {
		t.Fatalf("paged walk found %d members, want %d", len(walked), len(want))
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("paged walk[%d] = %s, want %s", i, walked[i], want[i])
		}
	}

	// The cursor helper reassembles the same listing.
	all, err := api.AllMembers(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(want) {
		t.Fatalf("AllMembers = %d members, want %d", len(all), len(want))
	}

	// Unknown group and missing group surface typed envelope errors.
	if _, _, err := api.Members(ctx, "nope", "", 0); err == nil {
		t.Fatal("listing an unknown group succeeded")
	}
	if _, _, err := api.Members(ctx, "", "", 0); err == nil {
		t.Fatal("listing without a group succeeded")
	}
}

func TestProvisionOverHTTPEndToEnd(t *testing.T) {
	c, _, url := oneShard(t)
	ctx := context.Background()

	if err := client.NewAdminAPI(nil, url).CreateGroup(ctx, "g", []string{"alice@x", "bob@x"}); err != nil {
		t.Fatal(err)
	}
	scheme, pk, userKey, err := admin.ProvisionOverHTTP(nil, url, "alice@x", nil)
	if err != nil {
		t.Fatalf("ProvisionOverHTTP: %v", err)
	}
	// The provisioned material decrypts the group key through the normal
	// client path.
	cl, err := client.New(scheme, pk, "alice@x", userKey, c.Store, "g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GroupKey(ctx); err != nil {
		t.Fatalf("decrypt with provisioned key: %v", err)
	}
}

func TestProvisionOverHTTPWithPinnedRoot(t *testing.T) {
	_, _, url := oneShard(t)

	// Pinning the genuine root — the auditor root the shard advertises on
	// /info — succeeds.
	resp, err := http.Get(url + "/info")
	if err != nil {
		t.Fatal(err)
	}
	var info admin.SystemInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rootDER, err := base64.StdEncoding.DecodeString(info.RootCertDER)
	if err != nil {
		t.Fatal(err)
	}
	root, err := x509.ParseCertificate(rootDER)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := admin.ProvisionOverHTTP(nil, url, "u@x", root); err != nil {
		t.Fatalf("pinned genuine root: %v", err)
	}

	// Pinning a foreign root rejects the shard.
	ias, err := attest.NewIAS()
	if err != nil {
		t.Fatal(err)
	}
	foreignAuditor, err := pki.NewAuditor(ias.PublicKey(), enclave.IBBEMeasurement())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := admin.ProvisionOverHTTP(nil, url, "u@x", foreignAuditor.RootCertificate()); err == nil {
		t.Fatal("foreign pinned root accepted the enclave certificate")
	}
}

func TestProvisionRejectsBadRequests(t *testing.T) {
	_, _, url := oneShard(t)

	resp, err := http.Post(url+"/provision", "application/json", strings.NewReader(`{"id":"x","ecdh_pub":"!!!"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad encoding: %d", resp.StatusCode)
	}
	resp, err = http.Post(url+"/provision", "application/json", strings.NewReader(`{"id":"x","ecdh_pub":"AAAA"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad point: %d", resp.StatusCode)
	}
}

func TestServiceUnknownRoutes(t *testing.T) {
	_, _, url := oneShard(t)
	resp, err := http.Get(url + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown route: %d", resp.StatusCode)
	}
	resp, err = http.Post(url+"/admin/frobnicate", "application/json", strings.NewReader(`{"group":"g"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown admin op: %d", resp.StatusCode)
	}
}
