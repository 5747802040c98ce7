// Package benchmark provides the measurement harness that regenerates the
// paper's tables and figures: trace.Controller adapters for IBBE-SGX and
// the two Hybrid Encryption baselines, timing and statistics helpers, and
// plain-text printers that emit the same rows/series the paper plots.
package benchmark

import (
	"crypto/ecdh"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/cluster"
	"github.com/ibbesgx/ibbesgx/internal/core"
	"github.com/ibbesgx/ibbesgx/internal/enclave"
	"github.com/ibbesgx/ibbesgx/internal/hybrid"
	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/pairing"
	"github.com/ibbesgx/ibbesgx/internal/trace"
)

// IBBEController adapts the IBBE-SGX manager to the replay engine. User
// keys for decryption sampling are provisioned through the real handshake
// but outside the timed regions (a user provisions once, not per read).
//
// The manager runs with DisableRewrap, so a removal re-keys every partition:
// Figs. 7–10 measure Algorithm 3 as published.
type IBBEController struct {
	Mgr  *core.Manager
	Encl *enclave.IBBEEnclave

	// AdminG1Exp is the G1 exponentiations spent inside membership calls and
	// DecryptZrMul the Z_r multiplications spent inside DecryptSamples sampled
	// decrypts: the operation counts behind Fig. 9's two plots, which hold
	// their ordering where sub-millisecond timings do not. Calls on one
	// controller must not overlap for the split to be exact.
	AdminG1Exp, DecryptZrMul, DecryptSamples int64

	ops     *ibbe.Metrics
	mu      sync.Mutex
	clients map[string]*core.Client
}

var (
	_ trace.Controller     = (*IBBEController)(nil)
	_ trace.DecryptSampler = (*IBBEController)(nil)
)

// NewIBBEController builds a fresh enclave + manager pair at the given
// partition capacity on the given pairing parameters.
func NewIBBEController(params *pairing.Params, capacity int, seed int64) (*IBBEController, error) {
	platform, err := enclave.NewPlatform("bench-platform", rand.Reader)
	if err != nil {
		return nil, err
	}
	ie, err := enclave.NewIBBEEnclave(platform, params)
	if err != nil {
		return nil, err
	}
	if _, _, err := ie.EcallSetup(capacity); err != nil {
		return nil, err
	}
	mgr, err := core.NewManager(ie, capacity, seed)
	if err != nil {
		return nil, err
	}
	mgr.DisableRewrap = true
	ops := &ibbe.Metrics{}
	ie.Scheme().Metrics = ops
	return &IBBEController{Mgr: mgr, Encl: ie, ops: ops, clients: make(map[string]*core.Client)}, nil
}

// admin runs one membership call and charges its G1 exponentiations to
// AdminG1Exp.
func (c *IBBEController) admin(call func() error) error {
	before := c.ops.G1Exp.Load()
	err := call()
	c.AdminG1Exp += c.ops.G1Exp.Load() - before
	return err
}

// CreateGroup implements trace.Controller.
func (c *IBBEController) CreateGroup(group string, members []string) error {
	if len(members) == 0 {
		// The kernel trace starts from an empty group; IBBE-SGX groups are
		// created on first add.
		return nil
	}
	return c.admin(func() error {
		_, err := c.Mgr.CreateGroup(group, members)
		return err
	})
}

// AddUser implements trace.Controller, creating the group lazily when the
// trace starts empty.
func (c *IBBEController) AddUser(group, user string) error {
	return c.admin(func() error {
		_, err := c.Mgr.AddUser(group, user)
		if err != nil && isNoSuchGroup(err) {
			_, err = c.Mgr.CreateGroup(group, []string{user})
		}
		return err
	})
}

// RemoveUser implements trace.Controller.
func (c *IBBEController) RemoveUser(group, user string) error {
	return c.admin(func() error {
		_, err := c.Mgr.RemoveUser(group, user)
		return err
	})
}

// MetadataSize implements trace.Controller.
func (c *IBBEController) MetadataSize(group string) (int, error) {
	return c.Mgr.MetadataSize(group)
}

// SampleDecrypt implements trace.DecryptSampler: it times exactly the
// client-side derivation (IBBE decrypt + unwrap), with record fetch and key
// provisioning excluded, mirroring Fig. 8b/9's isolated decrypt metric.
func (c *IBBEController) SampleDecrypt(group, user string) (time.Duration, error) {
	cl, err := c.clientFor(user)
	if err != nil {
		return 0, err
	}
	// Single-page fetch: the index maps the user to its partition, so the
	// sample never materialises the whole group's records.
	rec, err := c.Mgr.Record(group, user)
	if err != nil {
		return 0, fmt.Errorf("benchmark: %s has no partition in %s: %w", user, group, err)
	}
	zrBefore := c.ops.ZrMul.Load()
	start := time.Now()
	if _, err := cl.DecryptRecord(group, rec); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	c.DecryptZrMul += c.ops.ZrMul.Load() - zrBefore
	c.DecryptSamples++
	return elapsed, nil
}

// clientFor provisions (and caches) a decryption client for user.
func (c *IBBEController) clientFor(user string) (*core.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.clients[user]; ok {
		return cl, nil
	}
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	prov, err := c.Encl.EcallExtractUserKey(user, priv.PublicKey())
	if err != nil {
		return nil, err
	}
	uk, err := prov.Open(c.Encl.Scheme(), c.Encl.IdentityPublicKey(), priv)
	if err != nil {
		return nil, err
	}
	cl, err := core.NewClient(c.Encl.Scheme(), c.Mgr.PublicKey(), user, uk)
	if err != nil {
		return nil, err
	}
	c.clients[user] = cl
	return cl, nil
}

func isNoSuchGroup(err error) bool {
	return errors.Is(err, core.ErrNoSuchGroup)
}

// HEPKIController adapts the HE-PKI baseline. Key-pair registration — a
// PKI concern, not a membership operation — happens outside the timed
// calls via RegisterAll.
type HEPKIController struct {
	HE *hybrid.HEPKI

	mu     sync.Mutex
	groups map[string]*heGroup
}

type heGroup struct {
	gk [kdf.KeySize]byte
	md *hybrid.Metadata
}

var (
	_ trace.Controller     = (*HEPKIController)(nil)
	_ trace.DecryptSampler = (*HEPKIController)(nil)
)

// NewHEPKIController builds the baseline with an empty PKI.
func NewHEPKIController() *HEPKIController {
	return &HEPKIController{HE: hybrid.NewHEPKI(hybrid.NewPKI()), groups: make(map[string]*heGroup)}
}

// RegisterAll provisions PKI key pairs for every user a trace will touch.
func (c *HEPKIController) RegisterAll(users []string) error {
	for _, u := range users {
		if err := c.HE.PKI.Register(u, rand.Reader); err != nil {
			return err
		}
	}
	return nil
}

// CreateGroup implements trace.Controller.
func (c *HEPKIController) CreateGroup(group string, members []string) error {
	gk, md, err := c.HE.CreateGroup(members, rand.Reader)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups[group] = &heGroup{gk: gk, md: md}
	return nil
}

// AddUser implements trace.Controller.
func (c *HEPKIController) AddUser(group, user string) error {
	c.mu.Lock()
	g, ok := c.groups[group]
	c.mu.Unlock()
	if !ok {
		return c.CreateGroup(group, []string{user})
	}
	return c.HE.AddUser(g.md, g.gk, user, rand.Reader)
}

// RemoveUser implements trace.Controller.
func (c *HEPKIController) RemoveUser(group, user string) error {
	c.mu.Lock()
	g, ok := c.groups[group]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("benchmark: no group %s", group)
	}
	gk, err := c.HE.RemoveUser(g.md, user, rand.Reader)
	if err != nil {
		return err
	}
	g.gk = gk
	return nil
}

// MetadataSize implements trace.Controller.
func (c *HEPKIController) MetadataSize(group string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[group]
	if !ok {
		return 0, fmt.Errorf("benchmark: no group %s", group)
	}
	return g.md.Size(), nil
}

// SampleDecrypt implements trace.DecryptSampler.
func (c *HEPKIController) SampleDecrypt(group, user string) (time.Duration, error) {
	c.mu.Lock()
	g, ok := c.groups[group]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("benchmark: no group %s", group)
	}
	start := time.Now()
	if _, err := c.HE.Decrypt(g.md, user); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// HEIBEController adapts the HE-IBE baseline (per-member Boneh–Franklin
// wrapping). User-key extraction is prewarmed outside timed decrypts.
type HEIBEController struct {
	HE *hybrid.HEIBE

	mu     sync.Mutex
	groups map[string]*heGroup
}

var (
	_ trace.Controller     = (*HEIBEController)(nil)
	_ trace.DecryptSampler = (*HEIBEController)(nil)
)

// NewHEIBEController sets up a fresh IBE authority on the given parameters.
func NewHEIBEController(params *pairing.Params) (*HEIBEController, error) {
	he, err := hybrid.NewHEIBE(params, rand.Reader)
	if err != nil {
		return nil, err
	}
	return &HEIBEController{HE: he, groups: make(map[string]*heGroup)}, nil
}

// CreateGroup implements trace.Controller.
func (c *HEIBEController) CreateGroup(group string, members []string) error {
	gk, md, err := c.HE.CreateGroup(members, rand.Reader)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups[group] = &heGroup{gk: gk, md: md}
	return nil
}

// AddUser implements trace.Controller.
func (c *HEIBEController) AddUser(group, user string) error {
	c.mu.Lock()
	g, ok := c.groups[group]
	c.mu.Unlock()
	if !ok {
		return c.CreateGroup(group, []string{user})
	}
	return c.HE.AddUser(g.md, g.gk, user, rand.Reader)
}

// RemoveUser implements trace.Controller.
func (c *HEIBEController) RemoveUser(group, user string) error {
	c.mu.Lock()
	g, ok := c.groups[group]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("benchmark: no group %s", group)
	}
	gk, err := c.HE.RemoveUser(g.md, user, rand.Reader)
	if err != nil {
		return err
	}
	g.gk = gk
	return nil
}

// MetadataSize implements trace.Controller.
func (c *HEIBEController) MetadataSize(group string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[group]
	if !ok {
		return 0, fmt.Errorf("benchmark: no group %s", group)
	}
	return g.md.Size(), nil
}

// SampleDecrypt implements trace.DecryptSampler.
func (c *HEIBEController) SampleDecrypt(group, user string) (time.Duration, error) {
	c.mu.Lock()
	g, ok := c.groups[group]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("benchmark: no group %s", group)
	}
	// Prewarm the extraction cache so only the decryption is timed.
	if _, err := c.HE.UserKey(user); err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := c.HE.Decrypt(g.md, user); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// RawIBBE exposes the unpartitioned, PK-only IBBE scheme (the paper's
// Fig. 2 baseline): quadratic encryption, constant metadata.
type RawIBBE struct {
	Scheme *ibbe.Scheme
	MSK    *ibbe.MasterSecretKey
	PK     *ibbe.PublicKey
}

// NewRawIBBE sets up raw IBBE supporting groups up to maxGroup.
func NewRawIBBE(params *pairing.Params, maxGroup int) (*RawIBBE, error) {
	s := ibbe.NewScheme(params)
	msk, pk, err := s.Setup(maxGroup, rand.Reader)
	if err != nil {
		return nil, err
	}
	return &RawIBBE{Scheme: s, MSK: msk, PK: pk}, nil
}

// shardOp drives one admin operation through the shard handlers the way
// the gateway would: candidates in ring order under the CURRENT membership,
// 503 means "not the owner (or mid hand-off), try the next candidate".
func shardOp(c *cluster.Cluster, group, route string, body map[string]any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := c.Membership()
		for _, id := range m.Owners(group) {
			shard := c.Shard(id)
			if shard == nil {
				continue
			}
			req := httptest.NewRequest(http.MethodPost, "/admin/"+route, strings.NewReader(string(blob)))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			shard.ServeHTTP(rec, req)
			if rec.Code == http.StatusServiceUnavailable {
				continue
			}
			if rec.Code >= 300 {
				return fmt.Errorf("benchmark: shard answered %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benchmark: no shard served %s for %s before the deadline", route, group)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
