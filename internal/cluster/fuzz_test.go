package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"asdsim/internal/farm"
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

// oldGrant is a grant as coordinators built before the transition log
// sent it: with the trace context of a coordinator-side lease span.
const oldGrant = `{"kind":"acquire_ok","acquire_ok":{"grant":{"lease_id":"l-8","key":"k",` +
	`"spec":{"benchmark":"GemsFDTD"},"ttl_ms":15000,` +
	`"trace":{"trace_id":"00112233445566778899aabbccddeeff","parent":"00000000feedface"}},"pending":1}}`

// oldComplete is a completion as workers built before the transition
// log sent it: with the execute span the worker recorded (%s is the
// lease's key).
const oldComplete = `{"kind":"complete","complete":{"worker_id":"%s","lease_id":"%s",` +
	`"outcome":{"key":"%s","benchmark":"milc","mode":0,"result":{},"attempts":1},` +
	`"spans":[{"trace_id":"00112233445566778899aabbccddeeff","id":"00000000feedface",` +
	`"parent":"00000000abad1dea","name":"execute","node":"w2","key":"%[3]s",` +
	`"start_us":1700000000000000,"dur_us":2500,"attrs":[{"k":"lease","v":"%[2]s"}]}]}}`

// Envelopes from peers built before the transition log still decode,
// and an older worker's completion, spans and all, is accepted.
func TestOlderPeersStillDecode(t *testing.T) {
	if m, err := DecodeMessage([]byte(oldHeartbeat)); err != nil || m.Heartbeat.WorkerID != "w-1" {
		t.Fatalf("an older worker's heartbeat does not decode: %+v, %v", m, err)
	}
	if m, err := DecodeMessage([]byte(oldGrant)); err != nil || m.AcquireOK.Grant.LeaseID != "l-8" {
		t.Fatalf("an older coordinator's grant does not decode: %+v, %v", m, err)
	}

	c := New(Options{Now: newFakeClock().Now})
	spec := testSpec("milc", sim.NP)
	ret := startBatch(c, context.Background(), []farm.Spec{spec}, nil)
	waitPending(t, c, 1)
	w := mustRegister(t, c, "w2")
	g, err := c.Acquire(AcquireRequest{WorkerID: w.WorkerID})
	if err != nil || g.Grant == nil {
		t.Fatalf("acquire: %+v %v", g, err)
	}
	m, err := DecodeMessage([]byte(fmt.Sprintf(oldComplete, w.WorkerID, g.Grant.LeaseID, spec.Key())))
	if err != nil {
		t.Fatalf("an older worker's completion does not decode: %v", err)
	}
	if _, err := c.Complete(*m.Complete); err != nil {
		t.Fatalf("an older worker's completion is refused: %v", err)
	}
	if r := <-ret; r.err != nil || !r.out[0].OK() {
		t.Fatalf("batch %+v", r)
	}
}

// seedMessages covers every envelope kind, including the two payloads
// that embed full farm types (a Grant's Spec, a completion's Outcome),
// and older peers' envelopes, which must still decode.
func seedMessages(t testing.TB) [][]byte {
	t.Helper()
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
		[]byte(oldGrant),
		encodeSeed(t, &Message{Kind: "acquire_ok", AcquireOK: &AcquireResponse{}}),
		encodeSeed(t, &Message{Kind: "complete", Complete: &CompleteRequest{WorkerID: "w-1", LeaseID: "l-7",
			Outcome: farm.Outcome{Key: spec.Key(), Benchmark: spec.Benchmark, Mode: spec.Mode,
				Engine: spec.Config.Engine.String(), Seed: spec.Config.Seed, Result: &res, Attempts: 1}}}),
		[]byte(fmt.Sprintf(oldComplete, "w-2", "l-8", spec.Key())),
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
