package cluster

import (
	"encoding/json"
	"errors"
	"fmt"

	"asdsim/internal/farm"
)

// ProtocolVersion gates coordinator/worker compatibility; a worker
// built at a different version is refused at registration.
const ProtocolVersion = 1

// Wire errors. The rpc transport maps these to/from WireError codes so
// a worker sees the same sentinel across loopback and HTTP.
var (
	// ErrUnknownWorker means the worker id is not (or no longer)
	// registered — its liveness expired. Re-register and continue.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	// ErrLeaseExpired means a completion arrived after its lease was
	// reclaimed; the result was discarded (deterministic sims make the
	// replacement run bit-identical, so nothing is lost).
	ErrLeaseExpired = errors.New("cluster: lease expired")
	// ErrBadRequest covers malformed or inconsistent requests.
	ErrBadRequest = errors.New("cluster: bad request")
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human label for dashboards and logs; uniqueness is not
	// required (the coordinator assigns the identity).
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// RegisterResponse carries the assigned identity and the coordinator's
// timing contract.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is how long a granted lease lives without renewal.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// HeartbeatMS is the cadence the worker should heartbeat at to keep
	// its registration and leases alive.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest refreshes a worker's liveness and extends its
// leases. It carries liveness only: the coordinator counts each
// worker's runs from the outcomes it accepts. A stats object sent by an
// older worker is ignored on decode.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// Leases is how many leases the coordinator still attributes to the
	// worker — a worker holding more has lost some to expiry.
	Leases int `json:"leases"`
}

// AcquireRequest asks for one leased task.
type AcquireRequest struct {
	WorkerID string `json:"worker_id"`
}

// AcquireResponse carries a grant, or none when the queue is empty.
type AcquireResponse struct {
	Grant *Grant `json:"grant,omitempty"`
	// Pending is the post-grant queue depth, a poll-backoff hint.
	Pending int `json:"pending"`
}

// Grant is one leased unit of work. The trace context an older
// coordinator sends with it is ignored on decode.
type Grant struct {
	LeaseID string `json:"lease_id"`
	// Key is the spec's content address (farm.Spec.Key()); Complete
	// must return an outcome carrying the same key.
	Key   string    `json:"key"`
	Spec  farm.Spec `json:"spec"`
	TTLMS int64     `json:"ttl_ms"`
}

// CompleteRequest returns a leased task's terminal outcome. The spans
// an older worker sends with it are ignored on decode.
type CompleteRequest struct {
	WorkerID string       `json:"worker_id"`
	LeaseID  string       `json:"lease_id"`
	Outcome  farm.Outcome `json:"outcome"`
}

// CompleteResponse acknowledges an accepted completion.
type CompleteResponse struct{}

// WireError is an error crossing the wire with a machine-readable code.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes carried by WireError.
const (
	CodeUnknownWorker = "unknown_worker"
	CodeLeaseExpired  = "lease_expired"
	CodeBadRequest    = "bad_request"
)

// ToWire converts a coordinator error into its wire form.
func ToWire(err error) *WireError {
	switch {
	case errors.Is(err, ErrUnknownWorker):
		return &WireError{Code: CodeUnknownWorker, Message: err.Error()}
	case errors.Is(err, ErrLeaseExpired):
		return &WireError{Code: CodeLeaseExpired, Message: err.Error()}
	default:
		return &WireError{Code: CodeBadRequest, Message: err.Error()}
	}
}

// FromWire converts a wire error back into the matching sentinel so
// errors.Is works identically over loopback and HTTP.
func (e *WireError) FromWire() error {
	switch e.Code {
	case CodeUnknownWorker:
		return fmt.Errorf("%w: %s", ErrUnknownWorker, e.Message)
	case CodeLeaseExpired:
		return fmt.Errorf("%w: %s", ErrLeaseExpired, e.Message)
	default:
		return fmt.Errorf("%w: %s", ErrBadRequest, e.Message)
	}
}

// Message is the protocol envelope: a kind tag plus exactly one
// payload matching the kind. One envelope type (rather than per-route
// bodies) keeps the codec a single fuzzable surface.
type Message struct {
	Kind string `json:"kind"`

	Register    *RegisterRequest   `json:"register,omitempty"`
	Registered  *RegisterResponse  `json:"registered,omitempty"`
	Heartbeat   *HeartbeatRequest  `json:"heartbeat,omitempty"`
	HeartbeatOK *HeartbeatResponse `json:"heartbeat_ok,omitempty"`
	Acquire     *AcquireRequest    `json:"acquire,omitempty"`
	AcquireOK   *AcquireResponse   `json:"acquire_ok,omitempty"`
	Complete    *CompleteRequest   `json:"complete,omitempty"`
	CompleteOK  *CompleteResponse  `json:"complete_ok,omitempty"`
	Error       *WireError         `json:"error,omitempty"`
}

// payload returns the envelope's non-nil payload fields as (field
// name, matches-kind) pairs.
func (m *Message) payloads() (set []string, kindMatch bool) {
	check := func(name string, present bool) {
		if present {
			set = append(set, name)
			if name == m.Kind {
				kindMatch = true
			}
		}
	}
	check("register", m.Register != nil)
	check("registered", m.Registered != nil)
	check("heartbeat", m.Heartbeat != nil)
	check("heartbeat_ok", m.HeartbeatOK != nil)
	check("acquire", m.Acquire != nil)
	check("acquire_ok", m.AcquireOK != nil)
	check("complete", m.Complete != nil)
	check("complete_ok", m.CompleteOK != nil)
	check("error", m.Error != nil)
	return set, kindMatch
}

// Validate enforces the envelope invariant: a known kind, exactly one
// payload, and the payload matching the kind. Error envelopes must
// carry a code.
func (m *Message) Validate() error {
	set, kindMatch := m.payloads()
	if len(set) != 1 {
		return fmt.Errorf("%w: envelope carries %d payloads, want exactly 1", ErrBadRequest, len(set))
	}
	if !kindMatch {
		return fmt.Errorf("%w: kind %q does not match payload %q", ErrBadRequest, m.Kind, set[0])
	}
	if m.Kind == "error" && m.Error.Code == "" {
		return fmt.Errorf("%w: error envelope without a code", ErrBadRequest)
	}
	return nil
}

// maxMessageBytes bounds one envelope; a Result with its histograms is
// a few KB, so 4 MiB is generous while keeping hostile inputs cheap.
const maxMessageBytes = 4 << 20

// EncodeMessage renders a validated envelope.
func EncodeMessage(m *Message) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(m)
}

// DecodeMessage parses and validates an envelope from arbitrary bytes.
// It never panics, whatever the input.
func DecodeMessage(data []byte) (*Message, error) {
	if len(data) > maxMessageBytes {
		return nil, fmt.Errorf("%w: message of %d bytes exceeds the %d limit", ErrBadRequest, len(data), maxMessageBytes)
	}
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
