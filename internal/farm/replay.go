package farm

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"asdsim/internal/obs/prov"
	"asdsim/internal/sim"
)

// A farm run is a pure function of its spec, so the server answers
// after-the-fact questions about a run by running its spec again with
// the recorder the question needs: a capturing flight recorder for a
// triage bundle (Telemetry.bundle), a provenance recorder for
// GET /explain and /diff (Server.replayProv).

// replayGate is a one-slot semaphore that admits one replay at a time,
// so a burst of requests queues its simulations behind each other
// instead of running them all beside the server's jobs.
type replayGate chan struct{}

// enter waits for the gate until ctx is done.
func (g replayGate) enter(ctx context.Context) error {
	select {
	case g <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// leave lets the next replay in.
func (g replayGate) leave() { <-g }

// runOnce runs spec once, sampled when spec.Sample is set, converting a
// panic into an error. A sampled run's result is its extrapolated
// estimate, as Pool.attempt reports it.
func runOnce(ctx context.Context, spec Spec) (res sim.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("farm: job %s/%v panicked: %v", spec.Benchmark, spec.Mode, rec)
		}
	}()
	if spec.Sample != nil {
		var sres sim.SampledResult
		if sres, err = sim.SampledContext(ctx, spec.Benchmark, spec.Config, *spec.Sample); err != nil {
			return sim.Result{}, err
		}
		return sres.AsResult(), nil
	}
	return sim.RunContext(ctx, spec.Benchmark, spec.Config)
}

// replayRing bounds a provenance replay's record ring. It holds every
// 1M-instruction fig5–7 cell whole (cg/MS, the largest, records
// 125,376), so /explain and /diff read whole-run streams. The ring
// grows as records arrive, so a replay pays only for what its run
// records, and prov recycles no ring this large.
const replayRing = 1 << 21

// heldRun is a spec of a job the server holds, with its key.
type heldRun struct {
	key  string
	spec Spec
}

// held resolves key against the specs of the jobs the server holds:
// every running job and the maxFinishedJobs newest finished ones. An
// exact key matches; otherwise a prefix of exactly one held key does. A
// prefix of several held keys is a 400 and an unknown key a 404.
func (s *Server) held(key string) (heldRun, int, error) {
	var match heldRun
	var other string
	for _, j := range s.jobList() {
		for i, k := range j.specKeys() {
			switch {
			case k == key:
				return heldRun{key: k, spec: j.specs[i]}, http.StatusOK, nil
			case !strings.HasPrefix(k, key):
			case match.key == "":
				match = heldRun{key: k, spec: j.specs[i]}
			case k != match.key:
				other = k
			}
		}
	}
	switch {
	case other != "":
		return heldRun{}, http.StatusBadRequest, fmt.Errorf("key prefix %q names more than one held run (%.12s…, %.12s…)",
			key, match.key, other)
	case match.key == "":
		return heldRun{}, http.StatusNotFound, fmt.Errorf("no held job ran key %q: resubmit its matrix "+
			"(a store serves it without re-simulating)", key)
	}
	return match, http.StatusOK, nil
}

// provReplay is a held run's provenance and result, rebuilt by replay.
type provReplay struct {
	stream *prov.Stream
	result sim.Result
}

// replayProv replays each run in turn with a provenance recorder that
// holds it whole, its trace ID derived from the run's key as every farm
// trace's is. It holds the server's replay gate across all of the runs;
// ctx bounds the wait and the runs.
func (s *Server) replayProv(ctx context.Context, runs ...heldRun) ([]provReplay, error) {
	if err := s.replaying.enter(ctx); err != nil {
		return nil, err
	}
	defer s.replaying.leave()
	out := make([]provReplay, len(runs))
	for i, run := range runs {
		rec := prov.New(prov.Options{TraceID: TraceID(run.key), RingSize: replayRing})
		spec := run.spec
		spec.Config.Prov = rec
		res, err := runOnce(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("farm: replay of %s/%v: %w", spec.Benchmark, spec.Mode, err)
		}
		out[i] = provReplay{stream: rec.Stream(), result: res}
	}
	return out, nil
}
