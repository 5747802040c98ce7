package admin_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
)

// TestClientDecodesTypedSentinels: fenced_epoch and not_owner envelopes map
// to the package sentinels via errors.Is, and plain-text error bodies (a
// proxy, an older server) still yield a usable untyped *APIError.
func TestClientDecodesTypedSentinels(t *testing.T) {
	cases := []struct {
		name     string
		code     string
		status   int
		sentinel error
	}{
		{"fenced", admin.CodeFencedEpoch, http.StatusPreconditionFailed, client.ErrFencedEpoch},
		{"not-owner", admin.CodeNotOwner, http.StatusServiceUnavailable, client.ErrNotOwner},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				admin.WriteEnvelopeError(w, tc.status, 42, tc.code, "go away")
			}))
			defer ts.Close()
			err := gatewayClient(t, ts.URL).RekeyGroup(t.Context(), "g")
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Epoch != 42 || apiErr.Msg != "go away" {
				t.Fatalf("APIError = %+v", apiErr)
			}
		})
	}

	t.Run("plain-text-fallback", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		defer ts.Close()
		err := gatewayClient(t, ts.URL).RekeyGroup(t.Context(), "g")
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("error %T is not *client.APIError", err)
		}
		if apiErr.Code != "" || apiErr.Msg != "boom" || apiErr.StatusCode != 500 {
			t.Fatalf("APIError = %+v", apiErr)
		}
		if errors.Is(err, client.ErrFencedEpoch) || errors.Is(err, client.ErrNotOwner) {
			t.Fatal("untyped error matched a sentinel")
		}
	})
}
