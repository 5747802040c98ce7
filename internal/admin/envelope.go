package admin

import (
	"encoding/json"
	"net/http"
)

// Error codes carried in the control-API envelope. Clients branch on these
// instead of parsing message strings; client.ClusterClient maps them to
// typed sentinel errors (ErrFencedEpoch, ErrNotOwner).
const (
	// CodeFencedEpoch: the serving process operated under a superseded
	// membership epoch and the store fenced its write. Refresh membership
	// from the store record and retry against the current owner.
	CodeFencedEpoch = "fenced_epoch"
	// CodeNotOwner: the addressed shard does not (or no longer does) own
	// the group's lease. Retry after the interval in Retry-After; a routing
	// gateway re-resolves the owner first.
	CodeNotOwner = "not_owner"
	// CodeConflict: the operation itself is invalid against current state
	// (duplicate user, unknown group, drain of the last member, …).
	// Retrying without changing the request will fail the same way.
	CodeConflict = "conflict"
	// CodeBadRequest: the request was malformed.
	CodeBadRequest = "bad_request"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorInfo is the error half of the envelope.
type ErrorInfo struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// Envelope is the uniform JSON wrapper for the cluster-control API
// (/admin/cluster/v1/*) and for admin-operation errors: every response
// carries the serving process's membership epoch — so a client always
// learns how current its server was — a coarse status, and either a typed
// error or the endpoint-specific result.
type Envelope struct {
	Epoch  uint64          `json:"epoch"`
	Status string          `json:"status"` // "ok" | "error"
	Error  *ErrorInfo      `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// WriteEnvelope answers 200 with {"epoch":…,"status":"ok","result":…}.
func WriteEnvelope(w http.ResponseWriter, epoch uint64, result any) {
	raw, err := json.Marshal(result)
	if err != nil {
		WriteEnvelopeError(w, http.StatusInternalServerError, epoch, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(Envelope{Epoch: epoch, Status: "ok", Result: raw})
}

// WriteEnvelopeError answers httpStatus with
// {"epoch":…,"status":"error","error":{"code":…,"msg":…}}. Callers set any
// transport hints (Retry-After, X-Fenced) on the header first.
func WriteEnvelopeError(w http.ResponseWriter, httpStatus int, epoch uint64, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus)
	_ = json.NewEncoder(w).Encode(Envelope{Epoch: epoch, Status: "error", Error: &ErrorInfo{Code: code, Msg: msg}})
}
