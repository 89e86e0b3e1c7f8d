package cluster

import (
	"errors"
	"reflect"
	"testing"

	"asdsim/internal/farm"
	"asdsim/internal/obs/span"
	"asdsim/internal/sim"
)

// encodeSeed builds a valid wire encoding for the fuzz corpus, failing
// the test (not the fuzz target) if the envelope itself is malformed.
func encodeSeed(t testing.TB, m *Message) []byte {
	t.Helper()
	data, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("seed envelope invalid: %v", err)
	}
	return data
}

// oldHeartbeat is a heartbeat as workers built before the coordinator
// counted fleet runs itself sent it: with a stats object of pool
// counters and a wall-clock histogram, which the decoder now drops.
const oldHeartbeat = `{"kind":"heartbeat","heartbeat":{"worker_id":"w-1","stats":{` +
	`"pool":{"workers":2,"completed":9,"sim_instructions":360000000},` +
	`"wall":{"counts":[0,0,3,6],"sum":4.25,"max":1.7}}}}`

// seedMessages covers every envelope kind, including the two payloads
// that embed full farm types (a Grant's Spec, a completion's Outcome),
// and an older worker's heartbeat, which must still decode.
func seedMessages(t testing.TB) [][]byte {
	t.Helper()
	if m, err := DecodeMessage([]byte(oldHeartbeat)); err != nil || m.Heartbeat.WorkerID != "w-1" {
		t.Fatalf("an older worker's heartbeat does not decode: %+v, %v", m, err)
	}
	spec := testSpec("GemsFDTD", sim.PMS)
	res := sim.Result{Cycles: 123456, Instructions: 654321}
	return [][]byte{
		encodeSeed(t, &Message{Kind: "register", Register: &RegisterRequest{Name: "node-3", Version: ProtocolVersion}}),
		encodeSeed(t, &Message{Kind: "registered", Registered: &RegisterResponse{WorkerID: "w-1", LeaseTTLMS: 15000, HeartbeatMS: 3333}}),
		encodeSeed(t, &Message{Kind: "heartbeat", Heartbeat: &HeartbeatRequest{WorkerID: "w-1"}}),
		[]byte(oldHeartbeat),
		encodeSeed(t, &Message{Kind: "heartbeat_ok", HeartbeatOK: &HeartbeatResponse{Leases: 2}}),
		encodeSeed(t, &Message{Kind: "acquire", Acquire: &AcquireRequest{WorkerID: "w-1"}}),
		encodeSeed(t, &Message{Kind: "acquire_ok", AcquireOK: &AcquireResponse{
			Grant: &Grant{LeaseID: "l-7", Key: spec.Key(), Spec: spec, TTLMS: 15000}, Pending: 4}}),
		encodeSeed(t, &Message{Kind: "acquire_ok", AcquireOK: &AcquireResponse{
			Grant: &Grant{LeaseID: "l-8", Key: spec.Key(), Spec: spec, TTLMS: 15000,
				Trace: &span.Context{TraceID: span.TraceIDFromKey(spec.Key()), Parent: 0xfeedface}}}}),
		encodeSeed(t, &Message{Kind: "acquire_ok", AcquireOK: &AcquireResponse{}}),
		encodeSeed(t, &Message{Kind: "complete", Complete: &CompleteRequest{WorkerID: "w-1", LeaseID: "l-7",
			Outcome: farm.Outcome{Key: spec.Key(), Benchmark: spec.Benchmark, Mode: spec.Mode,
				Engine: spec.Config.Engine.String(), Seed: spec.Config.Seed, Result: &res, Attempts: 1}}}),
		encodeSeed(t, &Message{Kind: "complete", Complete: &CompleteRequest{WorkerID: "w-2", LeaseID: "l-8",
			Outcome: farm.Outcome{Key: spec.Key(), Benchmark: spec.Benchmark, Mode: spec.Mode,
				Engine: spec.Config.Engine.String(), Seed: spec.Config.Seed, Result: &res, Attempts: 1},
			Spans: []span.Span{{TraceID: span.TraceIDFromKey(spec.Key()), ID: 0xfeedface, Parent: 0xabad1dea,
				Name: "execute", Node: "w2", Key: spec.Key(), StartUS: 1_700_000_000_000_000, DurUS: 2500,
				Attrs: []span.Attr{{Key: "lease", Value: "l-8"}}}}}}),
		encodeSeed(t, &Message{Kind: "complete_ok", CompleteOK: &CompleteResponse{}}),
		encodeSeed(t, &Message{Kind: "error", Error: &WireError{Code: CodeLeaseExpired, Message: "lease l-7 reclaimed"}}),
	}
}

// FuzzClusterCodec drives DecodeMessage with arbitrary bytes: it must
// never panic, and anything it accepts must survive an encode/decode
// round trip unchanged (the coordinator may re-frame any envelope).
func FuzzClusterCodec(f *testing.F) {
	for _, seed := range seedMessages(f) {
		f.Add(seed)
	}
	// Malformed shapes: junk, truncations, payload/kind mismatches,
	// double payloads, missing code.
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"kind":"register"}`))
	f.Add([]byte(`{"kind":"register","heartbeat":{"worker_id":"w-1"}}`))
	f.Add([]byte(`{"kind":"register","register":{"name":"a","version":1},"heartbeat":{"worker_id":"w-1"}}`))
	f.Add([]byte(`{"kind":"error","error":{"message":"no code"}}`))
	f.Add([]byte(`{"kind":"acquire_ok","acquire_ok":{"grant":{"spec":{"config":{"budget":1e309}}}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("DecodeMessage returned an invalid envelope: %v", verr)
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("accepted envelope failed to re-encode: %v", err)
		}
		m2, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the envelope:\n first: %+v\nsecond: %+v", m, m2)
		}
	})
}

func TestDecodeMessageRejectsMalformedEnvelopes(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ``},
		{"no payload", `{"kind":"register"}`},
		{"kind mismatch", `{"kind":"register","heartbeat":{"worker_id":"w-1"}}`},
		{"two payloads", `{"kind":"register","register":{"name":"a","version":1},"heartbeat":{"worker_id":"w-1"}}`},
		{"error without code", `{"kind":"error","error":{"message":"no code"}}`},
	}
	for _, tc := range cases {
		if _, err := DecodeMessage([]byte(tc.data)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	if _, err := DecodeMessage(make([]byte, maxMessageBytes+1)); !errors.Is(err, ErrBadRequest) {
		t.Errorf("oversize: err = %v, want ErrBadRequest", err)
	}
}

func TestWireErrorRoundTripPreservesSentinels(t *testing.T) {
	for _, sentinel := range []error{ErrUnknownWorker, ErrLeaseExpired, ErrBadRequest} {
		if back := ToWire(sentinel).FromWire(); !errors.Is(back, sentinel) {
			t.Errorf("wire round trip lost %v (got %v)", sentinel, back)
		}
	}
	if ToWire(errors.New("anything else")).Code != CodeBadRequest {
		t.Error("unclassified errors must map to bad_request")
	}
}
