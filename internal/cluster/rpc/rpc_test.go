package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"asdsim/internal/cluster"
	"asdsim/internal/farm"
	"asdsim/internal/sim"
)

func startCoordinator(t *testing.T) (*cluster.Coordinator, *Client) {
	t.Helper()
	coord := cluster.New(cluster.Options{})
	srv := httptest.NewServer(Handler(coord))
	t.Cleanup(srv.Close)
	return coord, &Client{Base: srv.URL, HTTPClient: srv.Client()}
}

func TestClientErrorsCarrySentinelsAcrossHTTP(t *testing.T) {
	_, client := startCoordinator(t)
	ctx := context.Background()

	if _, err := client.Register(ctx, cluster.RegisterRequest{Name: "x", Version: cluster.ProtocolVersion + 9}); !errors.Is(err, cluster.ErrBadRequest) {
		t.Fatalf("version mismatch over HTTP = %v, want ErrBadRequest", err)
	}
	if _, err := client.Heartbeat(ctx, cluster.HeartbeatRequest{WorkerID: "w-404"}); !errors.Is(err, cluster.ErrUnknownWorker) {
		t.Fatalf("unknown worker over HTTP = %v, want ErrUnknownWorker", err)
	}
	reg, err := client.Register(ctx, cluster.RegisterRequest{Name: "x", Version: cluster.ProtocolVersion})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := client.Complete(ctx, cluster.CompleteRequest{WorkerID: reg.WorkerID, LeaseID: "l-404"}); !errors.Is(err, cluster.ErrLeaseExpired) {
		t.Fatalf("bogus lease over HTTP = %v, want ErrLeaseExpired", err)
	}
	if resp, err := client.Acquire(ctx, cluster.AcquireRequest{WorkerID: reg.WorkerID}); err != nil || resp.Grant != nil {
		t.Fatalf("empty-queue acquire: %+v %v", resp, err)
	}
}

func TestHandlerRejectsMalformedBodies(t *testing.T) {
	coord := cluster.New(cluster.Options{})
	srv := httptest.NewServer(Handler(coord))
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+Route, "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	m, err := cluster.DecodeMessage(body)
	if err != nil || m.Kind != "error" || m.Error.Code != cluster.CodeBadRequest {
		t.Fatalf("error envelope = %+v (%v), want bad_request", m, err)
	}
}

// TestWorkerOverHTTPCompletesBatch runs the full loop — coordinator
// behind a real HTTP server, a Worker using the Client transport — and
// checks the batch comes back complete and correctly ordered.
func TestWorkerOverHTTPCompletesBatch(t *testing.T) {
	coord, client := startCoordinator(t)
	specs := []farm.Spec{
		{Benchmark: "a", Mode: sim.NP, Config: sim.Default(sim.NP, 1000)},
		{Benchmark: "b", Mode: sim.PMS, Config: sim.Default(sim.PMS, 1000)},
	}
	pool := farm.New(farm.Options{Workers: 2, Run: func(ctx context.Context, spec farm.Spec) (sim.Result, error) {
		return sim.Result{Cycles: uint64(len(spec.Benchmark)), Instructions: 1}, nil
	}})
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wCtx, wCancel := context.WithCancel(ctx)
	defer wCancel()
	wDone := make(chan struct{})
	go func() {
		defer close(wDone)
		(&cluster.Worker{Transport: client, Pool: pool, Name: "http-worker"}).Run(wCtx)
	}()

	out, err := coord.RunBatch(ctx, specs, nil, nil)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, o := range out {
		if !o.OK() || o.Key != specs[i].Key() || o.Result.Cycles != uint64(len(specs[i].Benchmark)) {
			t.Fatalf("out[%d] = %+v", i, o)
		}
	}
	wCancel()
	<-wDone
}
