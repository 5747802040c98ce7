package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// Typed admin-API failures, decoded from the service's error envelope.
// Branch with errors.Is; the full detail (op, HTTP status, server epoch,
// message) is on the wrapping *APIError via errors.As.
var (
	// ErrFencedEpoch: the serving process operated under a superseded
	// membership epoch and the store fenced its write. The cluster is
	// mid-reconfiguration — re-resolve the owner and retry.
	ErrFencedEpoch = errors.New("client: admin operates under a fenced (superseded) membership epoch")
	// ErrNotOwner: the addressed shard does not own the group's lease
	// (hand-off in progress or routing staleness). Retry after a beat.
	ErrNotOwner = errors.New("client: addressed shard does not own the group")
)

// APIError is a non-2xx admin-API response. Code and Epoch are populated
// when the service answered with the typed JSON envelope; plain-text error
// bodies (older servers, proxies) leave Code empty and carry the body in
// Msg, so the error is useful either way.
type APIError struct {
	Op         string // admin operation ("create", "add-batch", …)
	StatusCode int    // HTTP status
	Code       string // envelope error code ("fenced_epoch", …), "" if untyped
	Epoch      uint64 // serving process's membership epoch, 0 if untyped
	Msg        string // human-readable server message
	// Fenced reports the X-Fenced response header: the failure traces back
	// to an epoch-fenced store write, so the caller's membership view is
	// stale — refresh the record and re-route rather than retry in place.
	Fenced bool
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: admin %s failed: %d %s (epoch %d): %s", e.Op, e.StatusCode, e.Code, e.Epoch, e.Msg)
	}
	return fmt.Sprintf("client: admin %s failed: %d: %s", e.Op, e.StatusCode, e.Msg)
}

// Unwrap maps envelope codes to the package's sentinel errors.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case "fenced_epoch":
		return ErrFencedEpoch
	case "not_owner":
		return ErrNotOwner
	default:
		return nil
	}
}

// envelope mirrors admin.Envelope's error half (the client package stays
// independent of the server package).
type envelope struct {
	Epoch uint64 `json:"epoch"`
	Error *struct {
		Code string `json:"code"`
		Msg  string `json:"msg"`
	} `json:"error"`
}

// AdminAPI is a thin HTTP client for the administrator API a cluster shard
// serves (internal/cluster.Shard), directly or through the cluster's
// gateway router: it drives membership operations — including the
// batched add/remove routes that coalesce N changes into one re-key pass per
// touched partition — over the same wire surface curl uses.
type AdminAPI struct {
	// HTTP is the transport; nil selects http.DefaultClient.
	HTTP *http.Client
	// BaseURL is the gateway's (or one shard's) root, e.g. "http://127.0.0.1:9091".
	BaseURL string
}

// NewAdminAPI builds an admin API client for the given base URL.
func NewAdminAPI(httpc *http.Client, baseURL string) *AdminAPI {
	return &AdminAPI{HTTP: httpc, BaseURL: baseURL}
}

type adminOpRequest struct {
	Group   string   `json:"group"`
	User    string   `json:"user,omitempty"`
	Members []string `json:"members,omitempty"`
	Users   []string `json:"users,omitempty"`
}

// CreateGroup runs Algorithm 1 for a fresh group.
func (c *AdminAPI) CreateGroup(ctx context.Context, group string, members []string) error {
	return c.post(ctx, "create", adminOpRequest{Group: group, Members: members})
}

// AddUser adds one user (Algorithm 2).
func (c *AdminAPI) AddUser(ctx context.Context, group, user string) error {
	return c.post(ctx, "add", adminOpRequest{Group: group, User: user})
}

// RemoveUser revokes one user (Algorithm 3).
func (c *AdminAPI) RemoveUser(ctx context.Context, group, user string) error {
	return c.post(ctx, "remove", adminOpRequest{Group: group, User: user})
}

// AddUsers adds a batch of users with one ciphertext extension per touched
// partition.
func (c *AdminAPI) AddUsers(ctx context.Context, group string, users []string) error {
	return c.post(ctx, "add-batch", adminOpRequest{Group: group, Users: users})
}

// RemoveUsers revokes a batch of users under a single fresh group key, with
// one re-key pass per remaining partition.
func (c *AdminAPI) RemoveUsers(ctx context.Context, group string, users []string) error {
	return c.post(ctx, "remove-batch", adminOpRequest{Group: group, Users: users})
}

// RekeyGroup rotates the group key without membership changes.
func (c *AdminAPI) RekeyGroup(ctx context.Context, group string) error {
	return c.post(ctx, "rekey", adminOpRequest{Group: group})
}

// membersResult mirrors admin.MembersResult (the client package stays
// independent of the server package).
type membersResult struct {
	Members []string `json:"members"`
	Next    string   `json:"next"`
}

// Members fetches one page of the group's member listing: up to limit names
// strictly after the cursor, plus the cursor for the next page ("" when the
// listing is complete). limit <= 0 lets the server pick its default. Walk
// arbitrarily large groups page by page instead of asking for everything.
func (c *AdminAPI) Members(ctx context.Context, group, after string, limit int) ([]string, string, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	u := strings.TrimRight(c.BaseURL, "/") + "/admin/members?group=" + url.QueryEscape(group)
	if after != "" {
		u += "&after=" + url.QueryEscape(after)
	}
	if limit > 0 {
		u += "&limit=" + strconv.Itoa(limit)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		apiErr := &APIError{
			Op:         "members",
			StatusCode: resp.StatusCode,
			Msg:        strings.TrimSpace(string(body)),
			Fenced:     resp.Header.Get(storage.FencedHeader) != "",
		}
		var env envelope
		if json.Unmarshal(body, &env) == nil && env.Error != nil {
			apiErr.Code = env.Error.Code
			apiErr.Epoch = env.Epoch
			apiErr.Msg = env.Error.Msg
		}
		return nil, "", apiErr
	}
	var res membersResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, "", err
	}
	return res.Members, res.Next, nil
}

// AllMembers walks the paged listing to completion — a convenience for
// tools; arbitrarily large groups cost one round-trip per page, never one
// giant response.
func (c *AdminAPI) AllMembers(ctx context.Context, group string) ([]string, error) {
	var all []string
	after := ""
	for {
		page, next, err := c.Members(ctx, group, after, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, page...)
		if next == "" || len(page) == 0 {
			return all, nil
		}
		after = next
	}
}

// post sends one admin operation and maps non-2xx responses to errors
// carrying the service's message.
func (c *AdminAPI) post(ctx context.Context, op string, body adminOpRequest) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return postAdminOp(ctx, httpc, c.BaseURL, op, body)
}

// postAdminOp sends one admin operation to any admin endpoint — shared by
// AdminAPI (router-addressed) and ClusterClient (shard-addressed).
func postAdminOp(ctx context.Context, httpc *http.Client, baseURL, op string, body adminOpRequest) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	url := strings.TrimRight(baseURL, "/") + "/admin/" + op
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		apiErr := &APIError{
			Op:         op,
			StatusCode: resp.StatusCode,
			Msg:        strings.TrimSpace(string(body)),
			Fenced:     resp.Header.Get(storage.FencedHeader) != "",
		}
		var env envelope
		if json.Unmarshal(body, &env) == nil && env.Error != nil {
			apiErr.Code = env.Error.Code
			apiErr.Epoch = env.Epoch
			apiErr.Msg = env.Error.Msg
		}
		return apiErr
	}
	return nil
}
