package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"asdsim/internal/farm"
)

// Worker is one executor node: it registers with a coordinator over a
// Transport, pulls leased specs, runs them on a local farm.Pool
// (inheriting its retry/backoff/panic-recovery policy), heartbeats to
// keep long-running leases alive, and returns outcomes. It pushes no
// metrics: the coordinator counts its runs from the outcomes it
// accepts. Run blocks; the caller decides the concurrency (cmd/asdfarm
// runs one Run loop per configured slot).
type Worker struct {
	Transport Transport
	Pool      *farm.Pool
	// Name labels the worker in coordinator logs and dashboards.
	Name string
	// Logger receives structured lease-lifecycle records. Optional.
	Logger *slog.Logger

	stats WorkerStats
	// poll overrides workerPoll when positive; in-package tests shrink
	// it.
	poll time.Duration
}

// workerPoll is the idle wait between acquire attempts when the queue
// is empty.
const workerPoll = 250 * time.Millisecond

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
	poll := w.poll
	if poll <= 0 {
		poll = workerPoll
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
			// Acquire already refreshed liveness, so an idle worker
			// needs no heartbeat.
			if serr := sleepCtx(ctx, poll); serr != nil {
				return serr
			}
			continue
		}
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
			// stolen, which is safe.
			w.Transport.Heartbeat(ctx, HeartbeatRequest{WorkerID: id})
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
