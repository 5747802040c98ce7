package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/obs"
)

// registryServer serves a small obs.Registry exposition and counts scrapes.
func registryServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.CounterVec("ibbe_demo_ops_total", "Demo operations.", "op").With("add").Inc()
	reg.Gauge("ibbe_demo_inflight", "Demo in-flight requests.").Set(2)
	reg.Histogram("ibbe_demo_op_seconds", "Demo op latency.", []float64{0.01, 0.1}).Observe(0.05)
	var scrapes atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		scrapes.Add(1)
		reg.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &scrapes
}

func TestRequiredFamiliesPass(t *testing.T) {
	srv, _ := registryServer(t)
	var out strings.Builder
	err := run(&out, srv.URL, "ibbe_demo_ops_total, ibbe_demo_inflight,ibbe_demo_op_seconds", "", time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 families, exposition valid") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}

func TestMissingFamilyFailsAndNamesIt(t *testing.T) {
	srv, _ := registryServer(t)
	err := run(io.Discard, srv.URL, "ibbe_demo_ops_total,ibbe_absent_total", "", time.Second, 1)
	if err == nil || !strings.Contains(err.Error(), "ibbe_absent_total") {
		t.Fatalf("err = %v, want one naming ibbe_absent_total", err)
	}
	if strings.Contains(err.Error(), "ibbe_demo_ops_total") {
		t.Fatalf("err = %v names a family that is present", err)
	}
}

func TestMalformedExpositionFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "# TYPE ibbe_bad counter\nibbe_bad{op=\"add\" not-a-number\n")
	}))
	defer srv.Close()
	err := run(io.Discard, srv.URL, "", "", time.Second, 1)
	if err == nil || !strings.Contains(err.Error(), "malformed exposition") {
		t.Fatalf("err = %v, want malformed exposition", err)
	}
}

func TestZeroRetriesScrapesOnce(t *testing.T) {
	srv, scrapes := registryServer(t)
	if err := run(io.Discard, srv.URL, "ibbe_demo_ops_total", "", time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if n := scrapes.Load(); n != 1 {
		t.Fatalf("-retries 0 made %d requests, want 1", n)
	}

	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	err := run(io.Discard, down.URL, "", "", time.Second, 0)
	if err == nil || !strings.Contains(err.Error(), "after 1 attempts") || strings.Contains(err.Error(), "%!") {
		t.Fatalf("err = %v, want one failed attempt with its cause", err)
	}
}
