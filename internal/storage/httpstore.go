package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server exposes a Store over HTTP with the Dropbox-like protocol of Fig. 5:
// object PUT/GET/DELETE, directory listing, and directory long polling.
//
// Routes:
//
//	PUT    /v1/obj/{dir}/{name}      body = object bytes
//	GET    /v1/obj/{dir}/{name}
//	DELETE /v1/obj/{dir}/{name}
//	GET    /v1/list/{dir}            → JSON array of names
//	GET    /v1/version/{dir}         → JSON {"version": n}
//	GET    /v1/poll/{dir}?since=n    → long poll; JSON {"version": n}
//	POST   /v1/commit/{dir}?if-version=n&fence-epoch=e
//	                                 body = objects (see commit.go) → JSON {"version": n}
//
// A commit is applied through Commit on the backing store: atomically when
// that store is a Committer (MemStore, in memory or durable, as cloudsim
// serves it), as the chain when it is not (FaultStore, or a decorator that
// does not forward Commit).
type Server struct {
	store Store
	// PollTimeout bounds one long-poll round; clients re-arm (Dropbox uses
	// comparable timeouts on its longpoll endpoint).
	PollTimeout time.Duration
	// maxBody is maxBodyBytes; a field so that tests can exceed it without
	// sending 64 MiB.
	maxBody int64
}

// maxBodyBytes bounds the body of an object PUT and of a commit. A larger
// request is refused with 413 and changes nothing.
const maxBodyBytes = 64 << 20

// NewServer wraps a Store for HTTP serving.
func NewServer(store Store) *Server {
	return &Server{store: store, PollTimeout: 30 * time.Second, maxBody: maxBodyBytes}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Escaped paths keep %2F inside directory and object names intact.
	path := r.URL.EscapedPath()
	switch {
	case strings.HasPrefix(path, "/v1/obj/"):
		s.handleObject(w, r, path)
	case strings.HasPrefix(path, "/v1/list/"):
		s.handleList(w, r, path)
	case strings.HasPrefix(path, "/v1/version/"):
		s.handleVersion(w, r, path)
	case strings.HasPrefix(path, "/v1/poll/"):
		s.handlePoll(w, r, path)
	case strings.HasPrefix(path, "/v1/commit/"):
		s.handleCommit(w, r, path)
	default:
		http.NotFound(w, r)
	}
}

func splitObjectPath(path, prefix string) (dir, name string, err error) {
	rest := strings.TrimPrefix(path, prefix)
	parts := strings.SplitN(rest, "/", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return "", "", errors.New("storage: want /{dir}/{name}")
	}
	dir, err = url.PathUnescape(parts[0])
	if err != nil {
		return "", "", err
	}
	name, err = url.PathUnescape(parts[1])
	if err != nil {
		return "", "", err
	}
	return dir, name, nil
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request, path string) {
	dir, name, err := splitObjectPath(path, "/v1/obj/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		// ?if-version=n selects the conditional PUT (PutIf); adding
		// &fence-epoch=e makes it a fenced write (PutFenced). A fenced-out
		// writer gets 412 with the X-Fenced header set, distinguishing the
		// terminal fence from a retryable version conflict.
		if q := r.URL.Query(); q.Get("if-version") != "" {
			want, epoch, err := parseCondition(q)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := s.store.PutFenced(r.Context(), dir, name, body, want, epoch); err != nil {
				writeStoreErr(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err := s.store.Put(r.Context(), dir, name, body); err != nil {
			writeStoreErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		// Every GET answers with the directory version in X-Dir-Version, so
		// one round trip yields a cache key alongside the bytes. With
		// ?if-version=n the GET is conditional: a directory still at n
		// answers 304 Not Modified with the header and no body — the
		// revalidation round trip of a version-keyed client cache.
		var ifVersion uint64
		if cond := r.URL.Query().Get("if-version"); cond != "" {
			v, err := strconv.ParseUint(cond, 10, 64)
			if err != nil {
				http.Error(w, "bad if-version", http.StatusBadRequest)
				return
			}
			ifVersion = v
		}
		data, ver, err := GetVersionedIf(r.Context(), s.store, dir, name, ifVersion)
		if ver != 0 {
			w.Header().Set(DirVersionHeader, strconv.FormatUint(ver, 10))
		}
		if errors.Is(err, ErrNotModified) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if err != nil {
			writeStoreErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	case http.MethodDelete:
		if err := s.store.Delete(r.Context(), dir, name); err != nil {
			writeStoreErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// parseCondition reads the ?if-version=n[&fence-epoch=e] pair of a
// conditional write; a missing fence-epoch is 0 (no fence carried).
func parseCondition(q url.Values) (ifVersion, epoch uint64, err error) {
	if ifVersion, err = strconv.ParseUint(q.Get("if-version"), 10, 64); err != nil {
		return 0, 0, errors.New("bad if-version")
	}
	if fe := q.Get("fence-epoch"); fe != "" {
		if epoch, err = strconv.ParseUint(fe, 10, 64); err != nil {
			return 0, 0, errors.New("bad fence-epoch")
		}
	}
	return ifVersion, epoch, nil
}

// readBody reads a request body of at most maxBody bytes, answering 413 for
// a larger one (never storing a truncated prefix) and 400 for a broken one.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return nil, false
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request, path string) {
	dir, err := url.PathUnescape(strings.TrimPrefix(path, "/v1/commit/"))
	if err != nil || dir == "" {
		http.Error(w, "want /v1/commit/{dir}", http.StatusBadRequest)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	objs, ifVersion, epoch, err := parseCommitRequest(r.URL.RawQuery, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	v, err := Commit(r.Context(), s.store, dir, objs, ifVersion, epoch)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"version": v})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, path string) {
	dir, err := url.PathUnescape(strings.TrimPrefix(path, "/v1/list/"))
	if err != nil || dir == "" {
		http.Error(w, "want /v1/list/{dir}", http.StatusBadRequest)
		return
	}
	names, err := s.store.List(r.Context(), dir)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, names)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request, path string) {
	dir, err := url.PathUnescape(strings.TrimPrefix(path, "/v1/version/"))
	if err != nil || dir == "" {
		http.Error(w, "want /v1/version/{dir}", http.StatusBadRequest)
		return
	}
	v, err := s.store.Version(r.Context(), dir)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"version": v})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request, path string) {
	dir, err := url.PathUnescape(strings.TrimPrefix(path, "/v1/poll/"))
	if err != nil || dir == "" {
		http.Error(w, "want /v1/poll/{dir}", http.StatusBadRequest)
		return
	}
	since, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	ctx, cancel := context.WithTimeout(r.Context(), s.PollTimeout)
	defer cancel()
	v, err := s.store.Poll(ctx, dir, since)
	if errors.Is(err, context.DeadlineExceeded) {
		// Long-poll round expired without changes; client re-arms.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"version": v})
}

// FencedHeader marks a 412 as a fence rejection rather than a version
// conflict, so the client can map it back to ErrFenced. Cluster layers
// reuse the same header to mark an admin response caused by a fenced
// write, letting a routing gateway refresh its membership and re-route.
const FencedHeader = "X-Fenced"

// DirVersionHeader carries the directory version on every object GET
// response — the cache key of the version-keyed read path, delivered in
// the same round trip as the bytes it keys.
const DirVersionHeader = "X-Dir-Version"

func writeStoreErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNotFound) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if errors.Is(err, ErrFenced) {
		w.Header().Set(FencedHeader, "1")
		http.Error(w, err.Error(), http.StatusPreconditionFailed)
		return
	}
	if errors.Is(err, ErrVersionConflict) {
		http.Error(w, err.Error(), http.StatusPreconditionFailed)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPStore is the client-side Store implementation speaking the Server's
// protocol — what the paper's admin and client APIs use against Dropbox.
type HTTPStore struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client; a shared pooled client if nil.
	Client *http.Client

	baseOnce   sync.Once
	baseParsed *url.URL
	baseErr    error
}

var (
	_ Store     = (*HTTPStore)(nil)
	_ Committer = (*HTTPStore)(nil)
)

// defaultClient backs every HTTPStore without an explicit Client. Unlike
// http.DefaultClient it raises the per-host idle pool (DefaultTransport
// keeps only 2), so a flash crowd of cache misses against one shard or one
// cloud endpoint reuses warm connections instead of churning sockets.
var defaultClient = &http.Client{
	Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 128,
		IdleConnTimeout:     90 * time.Second,
		ForceAttemptHTTP2:   true,
	},
}

// NewHTTPStore returns a client for the given server base URL.
func NewHTTPStore(baseURL string) *HTTPStore {
	return &HTTPStore{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (h *HTTPStore) httpClient() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return defaultClient
}

func (h *HTTPStore) objURL(dir, name string) string {
	return h.BaseURL + "/v1/obj/" + url.PathEscape(dir) + "/" + url.PathEscape(name)
}

// getHeader is the header map shared by all GET requests. GETs carry no
// headers of their own and net/http treats an outgoing request's header as
// read-only (Client.send clones before adding Authorization from URL
// userinfo, and redirects build fresh requests), so one empty map serves
// every read instead of allocating one per call.
var getHeader = make(http.Header)

func (h *HTTPStore) base() (*url.URL, error) {
	h.baseOnce.Do(func() {
		h.baseParsed, h.baseErr = url.Parse(h.BaseURL)
	})
	return h.baseParsed, h.baseErr
}

// newGet builds a GET request from the base URL parsed once, the decoded
// and escaped path suffixes, and the shared header — skipping the URL
// string re-parse and header-map allocation http.NewRequest pays on every
// call. Reads dominate this store's traffic (the paper's workload is
// fetch-heavy), so the per-GET constant factor is the one worth shaving.
func (h *HTTPStore) newGet(ctx context.Context, path, escPath, rawQuery string) (*http.Request, error) {
	b, err := h.base()
	if err != nil {
		return nil, err
	}
	u := &url.URL{
		Scheme:   b.Scheme,
		Host:     b.Host,
		Path:     b.Path + path,
		RawPath:  b.EscapedPath() + escPath,
		RawQuery: rawQuery,
	}
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     getHeader,
		Host:       u.Host,
	}
	return req.WithContext(ctx), nil
}

// Put implements Store.
func (h *HTTPStore) Put(ctx context.Context, dir, name string, data []byte) error {
	req, err := h.putRequest(ctx, h.objURL(dir, name), data)
	if err != nil {
		return err
	}
	return h.expectNoContent(req)
}

// putRequest builds a PUT over the payload without copying it: a
// bytes.Reader wraps the caller's slice directly (strings.NewReader(string(
// data)) would duplicate every object body on every PUT), and NewRequest
// derives GetBody and ContentLength from it, so the transport can replay
// the body safely when a reused connection dies mid-request.
func (h *HTTPStore) putRequest(ctx context.Context, u string, data []byte) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, http.MethodPut, u, bytes.NewReader(data))
}

// PutIf implements Store via the ?if-version conditional PUT; the server
// answers 412 Precondition Failed on a version conflict. Epoch 0 is the
// unfenced degenerate case of PutFenced, mirroring the other backends.
func (h *HTTPStore) PutIf(ctx context.Context, dir, name string, data []byte, ifDirVersion uint64) error {
	return h.PutFenced(ctx, dir, name, data, ifDirVersion, 0)
}

// PutFenced implements Store via ?if-version=n&fence-epoch=e; the server
// answers 412 for both rejections and sets X-Fenced when the cause is the
// fencing token rather than the version.
func (h *HTTPStore) PutFenced(ctx context.Context, dir, name string, data []byte, ifDirVersion, epoch uint64) error {
	u := h.objURL(dir, name) + "?if-version=" + strconv.FormatUint(ifDirVersion, 10) +
		"&fence-epoch=" + strconv.FormatUint(epoch, 10)
	req, err := h.putRequest(ctx, u, data)
	if err != nil {
		return err
	}
	return h.expectNoContent(req)
}

// Commit implements Committer: one POST /v1/commit/{dir} carries every
// object, and the answer carries the new directory version. Rejections map
// back to ErrFenced / ErrVersionConflict exactly as for PutFenced.
func (h *HTTPStore) Commit(ctx context.Context, dir string, objs []Object, ifDirVersion, epoch uint64) (uint64, error) {
	u := h.BaseURL + "/v1/commit/" + url.PathEscape(dir) +
		"?if-version=" + strconv.FormatUint(ifDirVersion, 10) +
		"&fence-epoch=" + strconv.FormatUint(epoch, 10)
	size := 0 // an upper bound, so the body is built without regrowing
	for _, o := range objs {
		size += 1 + 2*binary.MaxVarintLen64 + len(o.Name) + len(o.Data)
	}
	body := appendCommitBody(make([]byte, 0, size), objs)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return h.versionResponse(req, false)
}

// Delete implements Store.
func (h *HTTPStore) Delete(ctx context.Context, dir, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, h.objURL(dir, name), nil)
	if err != nil {
		return err
	}
	return h.expectNoContent(req)
}

// Get implements Store.
func (h *HTTPStore) Get(ctx context.Context, dir, name string) ([]byte, error) {
	data, _, err := h.getVersioned(ctx, dir, name, 0)
	return data, err
}

// GetVersioned implements Store: one round trip returns the bytes plus the
// directory version the server stamps into X-Dir-Version.
func (h *HTTPStore) GetVersioned(ctx context.Context, dir, name string) ([]byte, uint64, error) {
	return h.getVersioned(ctx, dir, name, 0)
}

// GetVersionedIf implements ConditionalGetter via ?if-version=n; a 304
// answer maps to ErrNotModified with the (unchanged) version and no body.
func (h *HTTPStore) GetVersionedIf(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	return h.getVersioned(ctx, dir, name, ifVersion)
}

func (h *HTTPStore) getVersioned(ctx context.Context, dir, name string, ifVersion uint64) ([]byte, uint64, error) {
	var q string
	if ifVersion != 0 {
		q = "if-version=" + strconv.FormatUint(ifVersion, 10)
	}
	req, err := h.newGet(ctx, "/v1/obj/"+dir+"/"+name,
		"/v1/obj/"+url.PathEscape(dir)+"/"+url.PathEscape(name), q)
	if err != nil {
		return nil, 0, err
	}
	resp, err := h.httpClient().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var ver uint64
	if raw := resp.Header.Get(DirVersionHeader); raw != "" {
		if ver, err = strconv.ParseUint(raw, 10, 64); err != nil {
			return nil, 0, fmt.Errorf("storage: bad %s header %q", DirVersionHeader, raw)
		}
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, ver, fmt.Errorf("%w: %s at %d", ErrNotModified, dir, ver)
	case http.StatusNotFound:
		return nil, 0, fmt.Errorf("%w: %s/%s", ErrNotFound, dir, name)
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, 0, err
		}
		return data, ver, nil
	default:
		return nil, 0, httpError(resp)
	}
}

// List implements Store.
func (h *HTTPStore) List(ctx context.Context, dir string) ([]string, error) {
	req, err := h.newGet(ctx, "/v1/list/"+dir, "/v1/list/"+url.PathEscape(dir), "")
	if err != nil {
		return nil, err
	}
	resp, err := h.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, dir)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		return nil, fmt.Errorf("storage: decoding list: %w", err)
	}
	return names, nil
}

// Version implements Store.
func (h *HTTPStore) Version(ctx context.Context, dir string) (uint64, error) {
	req, err := h.newGet(ctx, "/v1/version/"+dir, "/v1/version/"+url.PathEscape(dir), "")
	if err != nil {
		return 0, err
	}
	return h.versionResponse(req, false)
}

// Poll implements Store. It re-arms across server-side long-poll timeouts
// until the context ends.
func (h *HTTPStore) Poll(ctx context.Context, dir string, since uint64) (uint64, error) {
	q := "since=" + strconv.FormatUint(since, 10)
	for {
		req, err := h.newGet(ctx, "/v1/poll/"+dir, "/v1/poll/"+url.PathEscape(dir), q)
		if err != nil {
			return 0, err
		}
		v, err := h.versionResponse(req, true)
		if err != nil {
			return 0, err
		}
		if v > since {
			return v, nil
		}
		// 204: long-poll round expired; re-arm unless the context is done.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
}

func (h *HTTPStore) versionResponse(req *http.Request, allowNoContent bool) (uint64, error) {
	resp, err := h.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if allowNoContent && resp.StatusCode == http.StatusNoContent {
		return 0, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, responseError(req, resp)
	}
	var out struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("storage: decoding version: %w", err)
	}
	return out.Version, nil
}

func httpError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("storage: server returned %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}

// responseError maps a failure response back to the store's sentinel errors
// (the inverse of writeStoreErr).
func responseError(req *http.Request, resp *http.Response) error {
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, req.URL.Path)
	case http.StatusPreconditionFailed:
		if resp.Header.Get(FencedHeader) != "" {
			return fmt.Errorf("%w: %s", ErrFenced, req.URL.Path)
		}
		return fmt.Errorf("%w: %s", ErrVersionConflict, req.URL.Path)
	}
	return httpError(resp)
}

// expectNoContent runs a request and asserts a 204 response.
func (h *HTTPStore) expectNoContent(req *http.Request) error {
	resp, err := h.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return responseError(req, resp)
	}
	return nil
}
