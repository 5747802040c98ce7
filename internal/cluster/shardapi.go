package cluster

import (
	"context"
	"crypto/ecdh"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/obs"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

// A shard is the admin server of the paper's deployment (Fig. 5): it fronts
// its enclave with the administrator API and the user-key provisioning
// channel. The provisioning payloads are self-protecting (ECIES to the
// user's ephemeral key plus an enclave signature), so the transport needs
// no additional secrecy; production deployments still wrap it in TLS as the
// paper prescribes.
//
// Routes:
//
//	POST /admin/create        {"group": g, "members": [...]}
//	POST /admin/add-batch     {"group": g, "users": [...]}
//	POST /admin/remove-batch  {"group": g, "users": [...]}
//	POST /admin/rekey         {"group": g}
//	GET  /admin/members?group=g&after=cursor&limit=n → admin.MembersResult
//	POST /provision           {"id": u, "ecdh_pub": b64} → admin.ProvisionResponse
//	GET  /info                → admin.SystemInfo
//	GET  /metrics             → the cluster's Prometheus exposition
//
// The /admin/* routes are served only for groups whose lease the shard
// holds; /provision and /info are served by any shard, as all enclaves share
// the master secret. An add or a removal names one user or many: a batch
// coalesces N membership changes into one re-key pass per touched partition
// (amortising the paper's dominant administrator cost), and one user is a
// batch of one. A mutation body with a field admin.OpRequest does not know
// or the route does not read (users on create, members on an add or a
// removal, either on rekey), or an add or removal naming no user, is
// refused with 400 bad_request.

// ops maps each mutation route to the admin call it runs.
var ops = map[string]func(a *admin.Admin, ctx context.Context, req *admin.OpRequest) error{
	"create": func(a *admin.Admin, ctx context.Context, q *admin.OpRequest) error {
		return a.CreateGroup(ctx, q.Group, q.Members)
	},
	"add-batch": func(a *admin.Admin, ctx context.Context, q *admin.OpRequest) error {
		return a.AddUsers(ctx, q.Group, q.Users)
	},
	"remove-batch": func(a *admin.Admin, ctx context.Context, q *admin.OpRequest) error {
		return a.RemoveUsers(ctx, q.Group, q.Users)
	},
	"rekey": func(a *admin.Admin, ctx context.Context, q *admin.OpRequest) error { return a.RekeyGroup(ctx, q.Group) },
}

// membersPageDefault / membersPageMax bound one GET /admin/members response;
// arbitrarily large groups are walked with the after cursor, never
// materialised in one reply.
const (
	membersPageDefault = 1000
	membersPageMax     = core.MaxUnpagedMembers
)

// ServeHTTP implements http.Handler.
func (s *Shard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/metrics" {
		s.obs.obsRegistry().Handler().ServeHTTP(w, r)
		return
	}
	if s.Stopped() {
		admin.WriteEnvelopeError(w, http.StatusServiceUnavailable, s.Epoch(), admin.CodeNotOwner, "cluster: shard stopped")
		return
	}
	// Join the router's trace (or any caller carrying the header): the
	// shard's admin and store spans then land in the same trace dump.
	if tid := r.Header.Get(obs.TraceHeader); tid != "" {
		trace, root := s.obs.obsTracer().JoinTrace(tid, "shard "+s.ID+" "+r.URL.Path)
		if root != nil {
			var code *statusCode
			w, code = withCode(w)
			defer func() { root.End(code.err()) }()
			r = r.WithContext(obs.ContextWithTrace(r.Context(), trace, root))
		}
	}
	switch kind := strings.TrimPrefix(r.URL.Path, "/admin/"); {
	case ops[kind] != nil && r.Method == http.MethodPost:
		s.serveOp(w, r, kind)
	case r.URL.Path == "/admin/members" && r.Method == http.MethodGet:
		s.serveMembers(w, r)
	case r.URL.Path == "/provision" && r.Method == http.MethodPost:
		s.serveProvision(w, r)
	case r.URL.Path == "/info" && r.Method == http.MethodGet:
		writeJSON(w, s.info)
	default:
		http.NotFound(w, r)
	}
}

// serveOp decodes one mutation, gates it on ownership and runs it.
func (s *Shard) serveOp(w http.ResponseWriter, r *http.Request, kind string) {
	var req admin.OpRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "bad request: "+err.Error())
		return
	}
	if req.Group == "" {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "missing group")
		return
	}
	if f := strayField(kind, &req); f != "" {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "bad request: /admin/"+kind+" does not take "+f)
		return
	}
	if strings.HasSuffix(kind, "-batch") && len(req.Users) == 0 {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "no users")
		return
	}
	if !s.gate(r.Context(), w, req.Group) {
		return
	}
	ctx, span := obs.StartSpan(r.Context(), "admin."+kind)
	t0 := time.Now()
	err := ops[kind](s.Admin, ctx, &req)
	span.End(err)
	s.obs.adminOp(s.ID, kind, t0, err)
	if err != nil {
		s.writeOpError(w, req.Group, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// strayField names a list the mutation route does not read ("" when the
// body has none): users on create, members on an add or a removal, either
// on rekey. Such a list is refused, never silently dropped.
func strayField(kind string, q *admin.OpRequest) string {
	switch {
	case q.Members != nil && kind != "create":
		return "members"
	case q.Users != nil && !strings.HasSuffix(kind, "-batch"):
		return "users"
	}
	return ""
}

// serveMembers answers one page of a group's member listing.
func (s *Shard) serveMembers(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	group := q.Get("group")
	if group == "" {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "missing group")
		return
	}
	limit := membersPageDefault
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "bad limit")
			return
		}
		limit = min(n, membersPageMax)
	}
	if !s.gate(r.Context(), w, group) {
		return
	}
	members, err := s.Admin.Manager().MembersPage(group, q.Get("after"), limit)
	if err != nil {
		s.writeOpError(w, group, err)
		return
	}
	res := admin.MembersResult{Group: group, Members: members}
	if len(members) == limit {
		res.Next = members[len(members)-1]
	}
	writeJSON(w, res)
}

// gate makes this shard the serving owner of group, answering the caller
// itself (and reporting false) when it cannot be: 503 not_owner while
// another shard holds the lease.
func (s *Shard) gate(ctx context.Context, w http.ResponseWriter, group string) bool {
	absent, err := s.ensureOwnership(ctx, group)
	if errors.Is(err, ErrLeaseHeld) {
		w.Header().Set("Retry-After", "1")
		admin.WriteEnvelopeError(w, http.StatusServiceUnavailable, s.Epoch(), admin.CodeNotOwner, err.Error())
		return false
	}
	// If an op for an owned group finds no local state, the cache was
	// dropped by a failed apply — possibly OUR OWN, which can have left a
	// partial write in the cloud. Rebuild WITH the healing key rotation
	// (takeover=true), exactly as if the group were reclaimed from a
	// crashed peer. The one exception: the ownership gate has just adopted
	// the group in this request and found nothing in the cloud, and a
	// second restore would read the same nothing.
	if err == nil && !absent && !s.Admin.Manager().HasGroup(group) {
		_, err = s.adopt(ctx, group, true)
	}
	if err != nil {
		admin.WriteEnvelopeError(w, http.StatusInternalServerError, s.Epoch(), admin.CodeInternal, err.Error())
		return false
	}
	return true
}

// writeOpError answers an admin op that failed on a group the shard owned
// when the op started.
func (s *Shard) writeOpError(w http.ResponseWriter, group string, err error) {
	if errors.Is(err, storage.ErrFenced) {
		// The store fenced the commit: this shard operates under a
		// superseded membership. Answer 412 with the storage layer's
		// X-Fenced marker (the same signal an HTTPStore server emits), so
		// the router refreshes the view and re-routes to the rightful
		// owner, and refresh the cluster's view without waiting for the
		// watch loop's next wake-up. The refresh is rate-limited across the
		// shards and the gateway router; a router refresh that lands inside
		// the window waits for this one's read.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			s.view.Refresh(ctx)
		}()
		w.Header().Set(storage.FencedHeader, "1")
		w.Header().Set("Retry-After", "1")
		admin.WriteEnvelopeError(w, http.StatusPreconditionFailed, s.Epoch(), admin.CodeFencedEpoch, err.Error())
		return
	}
	if !s.holdsLive(group) {
		// The lease is gone: the likely cause is a hand-off mid-request (a
		// membership change drained the group between the ownership gate
		// and the apply) — answer 503 so the gateway retries on the new
		// owner instead of surfacing a spurious error. A failure with its
		// OWN cause (say, a duplicate user) that merely coincided with
		// losing the lease is re-run once on the new owner, which returns
		// the same genuine error to the client — nothing is masked, at the
		// cost of one extra hop.
		w.Header().Set("Retry-After", "1")
		admin.WriteEnvelopeError(w, http.StatusServiceUnavailable, s.Epoch(), admin.CodeNotOwner, "cluster: group handed off mid-operation")
		return
	}
	if errors.Is(err, core.ErrEmptyID) {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, err.Error())
		return
	}
	admin.WriteEnvelopeError(w, http.StatusConflict, s.Epoch(), admin.CodeConflict, err.Error())
}

// serveProvision extracts a user's key and answers it wrapped to the user's
// ephemeral ECDH key, with everything needed to verify and use it.
func (s *Shard) serveProvision(w http.ResponseWriter, r *http.Request) {
	var req admin.ProvisionRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "bad request: "+err.Error())
		return
	}
	pubRaw, err := base64.StdEncoding.DecodeString(req.ECDHPub)
	if err != nil {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "bad ecdh_pub encoding")
		return
	}
	pub, err := ecdh.P256().NewPublicKey(pubRaw)
	if err != nil {
		admin.WriteEnvelopeError(w, http.StatusBadRequest, s.Epoch(), admin.CodeBadRequest, "bad ecdh_pub point")
		return
	}
	_, span := obs.StartSpan(r.Context(), "admin.extract")
	t0 := time.Now()
	prov, err := s.extract(req.ID, pub)
	span.End(err)
	s.obs.adminOp(s.ID, "extract", t0, err)
	if err != nil {
		admin.WriteEnvelopeError(w, http.StatusInternalServerError, s.Epoch(), admin.CodeInternal, err.Error())
		return
	}
	writeJSON(w, admin.ProvisionResponse{
		ID:             prov.ID,
		Box:            base64.StdEncoding.EncodeToString(prov.Box),
		Sig:            base64.StdEncoding.EncodeToString(prov.Sig),
		Params:         s.info.Params,
		PublicKey:      s.info.PublicKey,
		EnclaveCertDER: s.info.EnclaveCertDER,
		RootCertDER:    s.info.RootCertDER,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// statusCode wraps a ResponseWriter just enough to know the status code
// afterwards (for ending the shard's root span with an error on 5xx).
type statusCode struct {
	http.ResponseWriter
	code int
}

func withCode(w http.ResponseWriter) (http.ResponseWriter, *statusCode) {
	sc := &statusCode{ResponseWriter: w}
	return sc, sc
}

func (sc *statusCode) WriteHeader(code int) {
	if sc.code == 0 {
		sc.code = code
	}
	sc.ResponseWriter.WriteHeader(code)
}

func (sc *statusCode) err() error {
	if sc.code >= 500 {
		return fmt.Errorf("status %d", sc.code)
	}
	return nil
}
