package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/obs/span"
)

// Worker is one executor node: it registers with a coordinator over a
// Transport, pulls leased specs, runs them on a local farm.Pool
// (inheriting its retry/backoff/panic-recovery policy), heartbeats to
// keep long-running leases alive, and returns outcomes. Run blocks;
// the caller decides the concurrency (cmd/asdfarm runs one Run loop
// per configured slot).
type Worker struct {
	Transport Transport
	Pool      *farm.Pool
	// Name labels the worker in coordinator logs and dashboards.
	Name string
	// Poll is the idle wait between acquire attempts when the queue is
	// empty (default 250ms; tests shrink it).
	Poll time.Duration
	// Spans, when set, records an "execute" span per lease (parented on
	// the coordinator's lease span via the grant's trace context) and
	// ships the trace's spans back with the completion.
	Spans *span.Recorder
	// Logger receives structured lease-lifecycle records. Optional.
	Logger *slog.Logger

	stats WorkerStats
}

// snapshot builds the metrics-federation payload from the local pool.
func (w *Worker) snapshot() *WorkerSnapshot {
	m := w.Pool.Metrics()
	return &WorkerSnapshot{Pool: m.Snapshot(), Wall: m.Wall()}
}

// logInfo emits one structured record when a logger is configured.
func (w *Worker) logInfo(msg string, args ...any) {
	if w.Logger != nil {
		w.Logger.Info(msg, args...)
	}
}

// Stats exposes the worker's lease-traffic counters.
func (w *Worker) Stats() *WorkerStats { return &w.stats }

// Run registers and serves leases until ctx is cancelled or the
// transport fails a registration. Transient acquire failures back off
// one poll interval; an expired registration re-registers.
func (w *Worker) Run(ctx context.Context) error {
	if w.Transport == nil || w.Pool == nil {
		return fmt.Errorf("cluster: worker needs a Transport and a Pool")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	var (
		id      string
		hbEvery time.Duration
	)
	register := func() error {
		resp, err := w.Transport.Register(ctx, RegisterRequest{Name: w.Name, Version: ProtocolVersion})
		if err != nil {
			return err
		}
		id = resp.WorkerID
		hbEvery = time.Duration(resp.HeartbeatMS) * time.Millisecond
		if hbEvery <= 0 {
			hbEvery = poll
		}
		w.logInfo("registered with coordinator", "worker", w.Name, "worker_id", id)
		return nil
	}
	if err := register(); err != nil {
		return err
	}
	// statsEvery spaces stats-carrying idle heartbeats at roughly the
	// heartbeat cadence, counted in poll sleeps (no wall-clock reads).
	statsEvery := int(hbEvery / poll)
	if statsEvery < 1 {
		statsEvery = 1
	}
	idleSince := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.Transport.Acquire(ctx, AcquireRequest{WorkerID: id})
		switch {
		case errors.Is(err, ErrUnknownWorker):
			// Liveness expired (a long GC pause, a partition); identity is
			// cheap, so just re-enter the fleet.
			if err := register(); err != nil {
				return err
			}
			continue
		case err != nil:
			if serr := sleepCtx(ctx, poll); serr != nil {
				return serr
			}
			continue
		}
		if resp.Grant == nil {
			idleSince++
			if idleSince%statsEvery == 0 {
				// Acquire already refreshed liveness; this heartbeat only
				// pushes the federation snapshot. Best-effort.
				w.Transport.Heartbeat(ctx, HeartbeatRequest{WorkerID: id, Stats: w.snapshot()})
			}
			if serr := sleepCtx(ctx, poll); serr != nil {
				return serr
			}
			continue
		}
		idleSince = 0
		w.stats.noteAcquired()
		w.runLease(ctx, id, resp.Grant, hbEvery)
	}
}

// runLease executes one granted spec on the local pool, heartbeating
// while it runs so the lease outlives a long simulation, then returns
// the outcome. A cancelled ctx orphans the lease — the coordinator
// reclaims it at TTL and another worker's bit-identical rerun replaces
// the lost result.
func (w *Worker) runLease(ctx context.Context, id string, g *Grant, hbEvery time.Duration) {
	var exec *span.Active
	if w.Spans != nil && g.Trace != nil {
		exec = w.Spans.Start(g.Trace.TraceID, g.Trace.Parent, "execute", g.Key,
			span.Attr{Key: "lease", Value: g.LeaseID},
			span.Attr{Key: "benchmark", Value: g.Spec.Benchmark},
			span.Attr{Key: "mode", Value: g.Spec.Mode.String()})
	}
	done := make(chan farm.Outcome, 1)
	if err := w.Pool.Submit(ctx, g.Spec, func(o farm.Outcome) { done <- o }); err != nil {
		return // pool closed; the lease expires and is stolen
	}
	tick := time.NewTicker(hbEvery)
	defer tick.Stop()
	for {
		select {
		case o := <-done:
			if ctx.Err() != nil {
				// Shutting down: the outcome is a cancellation artifact,
				// not a job failure. Orphan the lease instead of reporting
				// it — the steal path reruns the cell bit-identically.
				return
			}
			req := CompleteRequest{WorkerID: id, LeaseID: g.LeaseID, Outcome: o}
			if exec != nil {
				status := "ok"
				if o.Err != "" {
					status = "failed"
				}
				exec.End(span.Attr{Key: "status", Value: status})
				req.Spans = w.Spans.DrainTrace(g.Trace.TraceID)
			}
			if _, err := w.Transport.Complete(ctx, req); err != nil {
				if errors.Is(err, ErrLeaseExpired) {
					w.stats.noteExpired()
					w.logInfo("result rejected: lease expired", "key", g.Key, "lease", g.LeaseID)
				}
				return
			}
			w.stats.noteCompleted()
			return
		case <-tick.C:
			// Best-effort: a failed heartbeat just means the lease may be
			// stolen, which is safe. Each carries the federation snapshot.
			if exec != nil {
				w.Spans.Event(g.Trace.TraceID, exec.ID(), "heartbeat", g.Key)
			}
			w.Transport.Heartbeat(ctx, HeartbeatRequest{WorkerID: id, Stats: w.snapshot()})
		case <-ctx.Done():
			return
		}
	}
}

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
